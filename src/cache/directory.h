// Server directory of client cache contents (paper §2.2).
//
// Cooperative caching extends the server's per-file callback state to track
// the individual blocks cached by each client so the server can forward
// requests. The directory maps each block to the set of clients holding a
// copy; holder counts make is-this-a-singlet queries O(1) (paper §2.4).
//
// It is also the simulator's one record of which blocks each file has. A
// block gets its record on first reference (NoteBlock, or AddHolder for a
// block never noted) and keeps it, with or without holders, until its file
// is erased. Each file lists its known blocks in first-reference order;
// whole-file deletes (EraseFile) and attribute refreshes (KnownBlocks) walk
// that list.
//
// Hot-path layout: both maps are open-addressing FlatHashMaps keyed on
// packed ids, and each holder set is an InlineVec that stores up to four
// ClientIds in place — N-Chance actively kills duplicates (§2.4), so almost
// every tracked block has one or two holders and the common AddHolder /
// RemoveHolder never allocates. Reserve() pre-sizes both maps from the
// simulation's aggregate cache capacity so replay runs rehash-free.
//
// Scale-out sharding: the directory can be split into N independent shards
// (power of two), each with its own block map, file lists, and arena.
// Blocks are routed by a hash of their *file* id, so a file's blocks — and
// its list — always live in one shard: deletes, attribute refreshes and
// invalidations stay single-shard operations with unchanged iteration
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
  kEraseBlock = 2,   // All state for a block was erased (whole-file delete).
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

  // Known blocks of one file, in first-reference order. Most files have a
  // handful of blocks; spills draw from the arena.
  using FileBlockList = InlineVec<BlockId, 4>;

  Directory() : Directory(nullptr, 1) {}

  // Both maps — and any holder-set or file-list spill past the inline
  // capacity — draw from `arena` (null = global heap). With `shards` > 1
  // (rounded up to a power of two) the directory is split into independent
  // shards routed by file-id hash; each shard then owns a private arena and
  // `arena` is left untouched, so shard storage is reclaimed when the
  // directory dies rather than pinned in the caller's run arena.
  explicit Directory(Arena* arena, std::uint32_t shards = 1);

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  // Pre-sizes the block maps for `expected_blocks` known blocks and the
  // file lists for `expected_files` files (divided evenly across shards)
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

  // Records a reference to `block`: the first one creates its record and
  // appends it to its file's list. Idempotent.
  void NoteBlock(BlockId block);

  // Records that `client` now caches `block` (noting the block first if
  // needed). Idempotent.
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

  // Known blocks of `file` in first-reference order, with or without
  // holders (empty if none). The reference is invalidated by any directory
  // mutation.
  const FileBlockList& KnownBlocks(FileId file) const;

  // Drops all state for `file` (whole-file delete). Visits each known block
  // in first-reference order as visitor(BlockId, const HolderList&), then
  // erases the block's record, counting one kEraseBlock; last, drops the
  // file's list. `visitor` must not mutate the directory.
  template <typename Fn>
  void EraseFile(FileId file, Fn&& visitor) {
    Shard& shard = ShardFor(file);
    const FileBlockList* blocks = shard.file_index.Find(file);
    if (blocks == nullptr) {
      return;
    }
    for (const BlockId& block : *blocks) {
      visitor(block, shard.holders.Find(block.Pack())->holders);
      shard.holders.Erase(block.Pack());
      CountOp(DirectoryOpKind::kEraseBlock, block, kNoClient);
    }
    shard.file_index.Erase(file);
  }

  // Known blocks, with or without holders.
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

  // Probe-length / occupancy statistics of the block map and the file-list
  // map, aggregated across shards (observability): sizes, buckets, and
  // rehash counts sum; probe lengths take the worst shard / the
  // size-weighted mean.
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

  // Shard routing hashes the file id (SplitMix64), not the whole block id,
  // so a file's blocks share a shard and its list never spans shards.
  std::size_t ShardIndexFor(FileId file) const {
    return static_cast<std::size_t>(SplitMix64(file).Next() & shard_mask_);
  }
  Shard& ShardFor(FileId file) { return shards_[ShardIndexFor(file)]; }
  const Shard& ShardFor(FileId file) const { return shards_[ShardIndexFor(file)]; }

  // `block`'s record, created and appended to its file's list on first
  // reference.
  PerBlock& Register(Shard& shard, BlockId block);

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
