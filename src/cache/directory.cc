#include "src/cache/directory.h"

namespace coopfs {

namespace {

const Directory::HolderList kEmptyHolders{};
const Directory::FileBlockList kEmptyBlocks{};

std::uint32_t RoundUpPowerOfTwo(std::uint32_t value) {
  std::uint32_t result = 1;
  while (result < value) {
    result <<= 1;
  }
  return result;
}

}  // namespace

Directory::Directory(Arena* arena, std::uint32_t shards) {
  const std::uint32_t count = RoundUpPowerOfTwo(shards == 0 ? 1 : shards);
  shard_mask_ = count - 1;
  shards_.reserve(count);
  if (count == 1) {
    // Unsharded: exactly the historical layout, spilling into the caller's
    // arena (sweep workers reuse that arena across jobs).
    shards_.emplace_back(arena);
    return;
  }
  for (std::uint32_t s = 0; s < count; ++s) {
    Shard shard(nullptr);
    // Chunks are allocated on first use, so idle shards cost nothing.
    shard.owned_arena = std::make_unique<Arena>();
    shard.arena = shard.owned_arena.get();
    shard.holders = FlatHashMap<std::uint64_t, PerBlock>(shard.arena);
    shard.file_index = FlatHashMap<FileId, FileBlockList>(shard.arena);
    shards_.push_back(std::move(shard));
  }
}

void Directory::Reserve(std::size_t expected_blocks, std::size_t expected_files) {
  const std::size_t count = shards_.size();
  for (Shard& shard : shards_) {
    if (expected_blocks > 0) {
      shard.holders.Reserve(expected_blocks / count + 1);
    }
    if (expected_files > 0) {
      shard.file_index.Reserve(expected_files / count + 1);
    }
  }
}

Directory::PerBlock& Directory::Register(Shard& shard, BlockId block) {
  auto [per_block, inserted] = shard.holders.TryEmplace(block.Pack());
  if (inserted) {
    shard.file_index[block.file].push_back(block, shard.arena);
  }
  return *per_block;
}

void Directory::NoteBlock(BlockId block) { Register(ShardFor(block.file), block); }

void Directory::AddHolder(BlockId block, ClientId client) {
  Shard& shard = ShardFor(block.file);
  HolderList& list = Register(shard, block).holders;
  if (!list.ContainsValue(client)) {
    list.push_back(client, shard.arena);
    CountOp(DirectoryOpKind::kAddHolder, block, client);
  }
}

void Directory::RemoveHolder(BlockId block, ClientId client) {
  PerBlock* per_block = ShardFor(block.file).holders.Find(block.Pack());
  if (per_block == nullptr) {
    return;
  }
  if (per_block->holders.SwapRemove(client)) {
    CountOp(DirectoryOpKind::kRemoveHolder, block, client);
  }
}

std::size_t Directory::HolderCount(BlockId block) const {
  const PerBlock* per_block = ShardFor(block.file).holders.Find(block.Pack());
  return per_block == nullptr ? 0 : per_block->holders.size();
}

const Directory::HolderList& Directory::Holders(BlockId block) const {
  const PerBlock* per_block = ShardFor(block.file).holders.Find(block.Pack());
  return per_block == nullptr ? kEmptyHolders : per_block->holders;
}

bool Directory::IsSingletHeldBy(BlockId block, ClientId client) const {
  const HolderList& list = Holders(block);
  return list.size() == 1 && list.front() == client;
}

ClientId Directory::PickHolder(BlockId block, ClientId exclude, Rng& rng) const {
  const HolderList& list = Holders(block);
  std::size_t eligible = 0;
  for (ClientId holder : list) {
    if (holder != exclude) {
      ++eligible;
    }
  }
  if (eligible == 0) {
    return kNoClient;
  }
  std::uint64_t pick = rng.NextBelow(eligible);
  for (ClientId holder : list) {
    if (holder != exclude) {
      if (pick == 0) {
        return holder;
      }
      --pick;
    }
  }
  return kNoClient;
}

const Directory::FileBlockList& Directory::KnownBlocks(FileId file) const {
  const FileBlockList* blocks = ShardFor(file).file_index.Find(file);
  return blocks == nullptr ? kEmptyBlocks : *blocks;
}

std::size_t Directory::NumTrackedBlocks() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.holders.size();
  }
  return total;
}

namespace {

// Aggregates per-shard map statistics: sizes, buckets, and rehashes sum;
// max probe takes the worst shard; avg probe is size-weighted.
FlatMapStats MergeStats(FlatMapStats into, const FlatMapStats& stats) {
  const double weighted = into.avg_probe_length * static_cast<double>(into.size) +
                          stats.avg_probe_length * static_cast<double>(stats.size);
  into.size += stats.size;
  into.buckets += stats.buckets;
  into.load_factor =
      into.buckets == 0 ? 0.0
                        : static_cast<double>(into.size) / static_cast<double>(into.buckets);
  if (stats.max_probe_length > into.max_probe_length) {
    into.max_probe_length = stats.max_probe_length;
  }
  into.avg_probe_length = into.size == 0 ? 0.0 : weighted / static_cast<double>(into.size);
  into.rehashes += stats.rehashes;
  return into;
}

}  // namespace

FlatMapStats Directory::HoldersIndexStats() const {
  FlatMapStats merged;
  for (const Shard& shard : shards_) {
    merged = MergeStats(merged, shard.holders.Stats());
  }
  return merged;
}

FlatMapStats Directory::FileIndexStats() const {
  FlatMapStats merged;
  for (const Shard& shard : shards_) {
    merged = MergeStats(merged, shard.file_index.Stats());
  }
  return merged;
}

}  // namespace coopfs
