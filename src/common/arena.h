// Reusable bump/slab arena for allocation-isolated replay.
//
// A parallel sweep runs one simulation per (config, policy) job, and each
// run builds a SimContext worth tens of megabytes of slabs and hash tables.
// Allocating that working set from the global heap on every job makes the
// fan-out path contend on the allocator and re-fault fresh pages per job —
// the measured cause of the negative parallel_sweep scaling this arena was
// built to fix. Instead, each sweep worker owns one Arena, builds every
// job's context out of it, and calls Reset() between jobs: the chunks (and
// their already-faulted pages) are retained, so steady-state sweeping
// performs no heap traffic and no cross-thread allocator contention at all.
//
// Design:
//   * chunked bump allocation: pointers never move, Allocate is a cursor
//     bump, and an oversized request just opens a larger chunk (doubling).
//   * Reset() rewinds the cursor but keeps every chunk, so the second and
//     later uses of the arena are allocation-free against the heap.
//   * no per-object free. Memory is reclaimed by Reset()/destruction only —
//     exactly the lifetime of a simulation run. Trivial and non-trivial
//     objects alike must be destroyed by their owners before Reset();
//     the arena never runs destructors.
//   * single-threaded by design: one arena per worker. Stats() exposes
//     reserved/used bytes so tests and the profiler can assert reuse.
//
// ArenaAllocator<T> adapts an Arena to the standard allocator interface so
// std::vector (BlockCache slabs, FlatHashMap slot arrays) can draw from it.
// A default-constructed ArenaAllocator (null arena) falls back to the
// global heap, so arena-aware containers behave identically when no arena
// is attached.
#ifndef COOPFS_SRC_COMMON_ARENA_H_
#define COOPFS_SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace coopfs {

class Arena {
 public:
  // First chunk size; later chunks double up to kMaxChunkBytes.
  static constexpr std::size_t kDefaultFirstChunkBytes = std::size_t{1} << 20;  // 1 MiB
  static constexpr std::size_t kMaxChunkBytes = std::size_t{64} << 20;          // 64 MiB

  explicit Arena(std::size_t first_chunk_bytes = kDefaultFirstChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes < kMinChunkBytes ? kMinChunkBytes
                                                             : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` aligned to `alignment` (a power of two). Never
  // returns null for bytes > 0; a zero-byte request returns a unique,
  // aligned, dereference-illegal pointer like operator new would.
  void* Allocate(std::size_t bytes, std::size_t alignment = alignof(std::max_align_t));

  // Rewinds the cursor to the start, retaining every chunk for reuse. All
  // previously returned pointers become invalid. Owners must have destroyed
  // any non-trivially-destructible objects first; the arena never runs
  // destructors.
  void Reset();

  struct Stats {
    std::size_t reserved_bytes = 0;  // Sum of all chunk sizes.
    std::size_t used_bytes = 0;      // Bytes handed out since the last Reset.
    std::size_t chunks = 0;          // Chunks currently retained.
    std::uint64_t resets = 0;        // Reset() calls so far.
    std::uint64_t chunk_allocations = 0;  // Heap chunk acquisitions ever.
  };
  Stats stats() const {
    Stats s;
    for (const Chunk& chunk : chunks_) {
      s.reserved_bytes += chunk.size;
    }
    s.used_bytes = used_bytes_;
    s.chunks = chunks_.size();
    s.resets = resets_;
    s.chunk_allocations = chunk_allocations_;
    return s;
  }

 private:
  static constexpr std::size_t kMinChunkBytes = 4096;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  // Opens (or advances to) a chunk able to serve `bytes` at `alignment`,
  // growing the chunk list if no retained chunk fits.
  void* AllocateSlow(std::size_t bytes, std::size_t alignment);

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;        // Active chunk index (valid if !chunks_.empty()).
  std::uintptr_t cursor_ = 0;      // Next free address within the active chunk.
  std::uintptr_t limit_ = 0;       // One past the active chunk's last byte.
  std::size_t next_chunk_bytes_;   // Size of the next freshly allocated chunk.
  std::size_t used_bytes_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t chunk_allocations_ = 0;
};

// Standard-allocator adapter. Stateful: compares equal iff it points at the
// same arena (or both at none). deallocate() is a no-op for arena-backed
// memory — containers that shrink or rehash waste their old buffer until
// the next Reset(), which is fine for the reserve-once replay containers
// this is built for.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
    }
    if constexpr (kOverAligned) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) {
      if constexpr (kOverAligned) {
        ::operator delete(p, std::align_val_t{alignof(T)});
      } else {
        ::operator delete(p);
      }
    }
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator<U>& b) noexcept {
    return a.arena() == b.arena();
  }

 private:
  static constexpr bool kOverAligned = alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__;

  Arena* arena_ = nullptr;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_ARENA_H_
