// Server directory of client cache contents (paper §2.2).
//
// Cooperative caching extends the server's per-file callback state to track
// the individual blocks cached by each client so the server can forward
// requests. The directory maps each block to the set of clients holding a
// copy; holder counts make is-this-a-singlet queries O(1) (paper §2.4).
//
// The directory also keeps a per-file index of the blocks it tracks, updated
// on each block's first AddHolder and on every EraseBlock. The replay path
// never reads it: whole-file deletes walk SimContext::KnownBlocksOfFile.
// Only BlocksOfFile (tests) and FileIndexStats (observability) read it.
//
// Hot-path layout: both maps are open-addressing FlatHashMaps keyed on
// packed ids, and each holder set is an InlineVec that stores up to four
// ClientIds in place — N-Chance actively kills duplicates (§2.4), so almost
// every tracked block has one or two holders and the common AddHolder /
// RemoveHolder never allocates. Reserve() pre-sizes both maps from the
// simulation's aggregate cache capacity so replay runs rehash-free.
//
// Scale-out sharding: the directory can be split into N independent shards
// (power of two), each with its own holder map, file index, and arena.
// Blocks are routed by a hash of their *file* id, so a file's blocks — and
// its file-index list — always live in one shard: BlocksOfFile, deletes,
// and invalidations stay single-shard operations with unchanged iteration
// order, which keeps every export byte-identical at any shard count (the
// shard-determinism ctest pins that). One shard (the default) is exactly
// the pre-sharding layout. Sharding bounds per-map size and rehash cost at
// 10^5-10^6-client populations and is the unit a future distributed
// directory (xFS-style manager maps) partitions on.
#ifndef COOPFS_SRC_CACHE_DIRECTORY_H_
#define COOPFS_SRC_CACHE_DIRECTORY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flat_hash_map.h"
#include "src/common/inline_vec.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace coopfs {

// Kinds of directory mutation reported to a DirectoryObserver.
enum class DirectoryOpKind : std::uint8_t {
  kAddHolder = 0,    // A client registered a new copy.
  kRemoveHolder = 1, // A client's copy was dropped.
  kEraseBlock = 2,   // All state for a block was erased (delete/invalidate).
};

// Observer of individual directory mutations (observability extension; the
// event-level TraceRecorder in src/obs implements this). The op counter
// below answers "how many"; the observer answers "which block, which
// client". Kept as a separate hook so the cheap counter stays available
// without per-op records.
class DirectoryObserver {
 public:
  virtual ~DirectoryObserver() = default;

  // `client` is the affected holder, or kNoClient for kEraseBlock.
  virtual void OnDirectoryOp(DirectoryOpKind op, BlockId block, ClientId client) = 0;
};

class Directory {
 public:
  // The set of clients caching one block. Most blocks have 1-2 holders, so
  // four inline slots cover the common case without heap traffic.
  using HolderList = InlineVec<ClientId, 4>;

  // Blocks of one file with (possibly stale) holder state. Most files have a
  // handful of tracked blocks at a time; spills draw from the arena.
  using FileBlockList = InlineVec<std::uint64_t, 4>;

  Directory() : Directory(nullptr, 1) {}

  // Both indexes — and any holder-set or file-list spill past the inline
  // capacity — draw from `arena` (null = global heap). With `shards` > 1
  // (rounded up to a power of two) the directory is split into independent
  // shards routed by file-id hash; each shard then owns a private arena and
  // `arena` is left untouched, so shard storage is reclaimed when the
  // directory dies rather than pinned in the caller's run arena.
  explicit Directory(Arena* arena, std::uint32_t shards = 1);

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  // Pre-sizes the block maps for `expected_blocks` tracked blocks and the
  // file indexes for `expected_files` files (divided evenly across shards)
  // so steady-state replay never rehashes. Zero leaves the default growth
  // behaviour.
  void Reserve(std::size_t expected_blocks, std::size_t expected_files);

  // Optional mutation counter (observability): when set, every holder
  // addition/removal and block erasure increments `*counter`. Null (the
  // default) disables counting entirely.
  void set_op_counter(std::uint64_t* counter) { op_counter_ = counter; }

  // Optional per-mutation observer (null disables). Observers see the same
  // mutations the op counter counts, with block/client detail.
  void set_observer(DirectoryObserver* observer) { observer_ = observer; }

  // Records that `client` now caches `block`. Idempotent.
  void AddHolder(BlockId block, ClientId client);

  // Records that `client` no longer caches `block`. No-op if not a holder.
  void RemoveHolder(BlockId block, ClientId client);

  // Number of client copies of `block`.
  std::size_t HolderCount(BlockId block) const;

  // All clients caching `block` (unordered). Empty if none. The reference
  // is invalidated by any directory mutation (flat-map storage) — copy
  // before mutating.
  const HolderList& Holders(BlockId block) const;

  // True if the only cached copy of `block` is at `client` (paper: singlet).
  bool IsSingletHeldBy(BlockId block, ClientId client) const;

  // True if `block` has at least two client copies.
  bool IsDuplicated(BlockId block) const { return HolderCount(block) >= 2; }

  // A holder other than `exclude`, chosen uniformly at random (kNoClient if
  // none). Used to forward a read to one of several caching clients.
  ClientId PickHolder(BlockId block, ClientId exclude, Rng& rng) const;

  // Blocks of `file` with at least one holder. May contain blocks whose
  // holder sets have since emptied; callers re-check HolderCount.
  std::vector<BlockId> BlocksOfFile(FileId file) const;

  // Drops all state for `block` (delete/invalidate).
  void EraseBlock(BlockId block);

  std::size_t NumTrackedBlocks() const;

  // Number of shards (power of two; 1 = unsharded layout).
  std::uint32_t num_shards() const { return static_cast<std::uint32_t>(shards_.size()); }

  // Singlet/duplicate split of the blocks clients currently cache (paper
  // §2.4: N-Chance preserves singlets, so its duplicate fraction is the
  // interesting gauge). O(tracked blocks); meant for state sampling, not
  // the replay hot path. Blocks whose holder sets have emptied are skipped,
  // so singlets + duplicates == blocks with >= 1 holder.
  struct DuplicationCounts {
    std::uint64_t singlets = 0;    // Exactly one client copy.
    std::uint64_t duplicates = 0;  // Two or more client copies.
  };
  DuplicationCounts CountDuplication() const {
    DuplicationCounts counts;
    for (const Shard& shard : shards_) {
      shard.holders.ForEach([&counts](std::uint64_t, const PerBlock& per_block) {
        if (per_block.holders.size() == 1) {
          ++counts.singlets;
        } else if (per_block.holders.size() >= 2) {
          ++counts.duplicates;
        }
      });
    }
    return counts;
  }

  // Visits every block with at least one holder, in unspecified,
  // capacity-dependent order (introspection/validation). Consumers must
  // aggregate order-independently or sort.
  template <typename Fn>
  void ForEachBlock(Fn&& visitor) const {
    for (const Shard& shard : shards_) {
      shard.holders.ForEach([&visitor](std::uint64_t packed, const PerBlock& per_block) {
        if (!per_block.holders.empty()) {
          visitor(BlockId::Unpack(packed), per_block.holders);
        }
      });
    }
  }

  // Probe-length / occupancy statistics of the two indexes, aggregated
  // across shards (observability): sizes, buckets, and rehash counts sum;
  // probe lengths take the worst shard / the size-weighted mean.
  FlatMapStats HoldersIndexStats() const;
  FlatMapStats FileIndexStats() const;

 private:
  struct PerBlock {
    HolderList holders;  // Small; linear scans are fine.
  };

  // One independent partition of the block space. `arena` is the shard's
  // spill allocator: the caller's arena when unsharded, the shard-owned one
  // otherwise.
  struct Shard {
    std::unique_ptr<Arena> owned_arena;
    Arena* arena = nullptr;
    FlatHashMap<std::uint64_t, PerBlock> holders;
    FlatHashMap<FileId, FileBlockList> file_index;

    explicit Shard(Arena* shard_arena)
        : arena(shard_arena), holders(shard_arena), file_index(shard_arena) {}
    Shard(Shard&&) = default;
  };

  // Shard routing hashes the file id (SplitMix64 finalizer), not the whole
  // block id, so a file's blocks share a shard and the per-file index never
  // spans shards.
  std::size_t ShardIndexFor(FileId file) const {
    std::uint64_t x = static_cast<std::uint64_t>(file) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x & shard_mask_);
  }
  Shard& ShardFor(FileId file) { return shards_[ShardIndexFor(file)]; }
  const Shard& ShardFor(FileId file) const { return shards_[ShardIndexFor(file)]; }

  void CountOp(DirectoryOpKind op, BlockId block, ClientId client) {
    if (op_counter_ != nullptr) {
      ++*op_counter_;
    }
    if (observer_ != nullptr) {
      observer_->OnDirectoryOp(op, block, client);
    }
  }

  std::uint64_t* op_counter_ = nullptr;
  DirectoryObserver* observer_ = nullptr;
  std::uint64_t shard_mask_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CACHE_DIRECTORY_H_
