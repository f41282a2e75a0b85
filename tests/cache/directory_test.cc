#include "src/cache/directory.h"

#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace coopfs {
namespace {

BlockId B(std::uint32_t file, std::uint32_t block = 0) { return BlockId{file, block}; }

std::vector<BlockId> Known(const Directory& dir, FileId file) {
  const Directory::FileBlockList& blocks = dir.KnownBlocks(file);
  return {blocks.begin(), blocks.end()};
}

TEST(DirectoryTest, StartsEmpty) {
  Directory dir;
  EXPECT_EQ(dir.HolderCount(B(1)), 0u);
  EXPECT_TRUE(dir.Holders(B(1)).empty());
  EXPECT_EQ(dir.NumTrackedBlocks(), 0u);
}

TEST(DirectoryTest, AddAndRemoveHolders) {
  Directory dir;
  dir.AddHolder(B(1), 5);
  dir.AddHolder(B(1), 9);
  EXPECT_EQ(dir.HolderCount(B(1)), 2u);
  dir.RemoveHolder(B(1), 5);
  EXPECT_EQ(dir.HolderCount(B(1)), 1u);
  EXPECT_EQ(dir.Holders(B(1)).front(), 9u);
  dir.RemoveHolder(B(1), 9);
  EXPECT_EQ(dir.HolderCount(B(1)), 0u);
}

TEST(DirectoryTest, AddHolderIsIdempotent) {
  Directory dir;
  dir.AddHolder(B(1), 5);
  dir.AddHolder(B(1), 5);
  EXPECT_EQ(dir.HolderCount(B(1)), 1u);
}

TEST(DirectoryTest, RemoveNonHolderIsNoOp) {
  Directory dir;
  dir.AddHolder(B(1), 5);
  dir.RemoveHolder(B(1), 6);
  dir.RemoveHolder(B(2), 5);
  EXPECT_EQ(dir.HolderCount(B(1)), 1u);
}

TEST(DirectoryTest, SingletDetection) {
  Directory dir;
  dir.AddHolder(B(1), 5);
  EXPECT_TRUE(dir.IsSingletHeldBy(B(1), 5));
  EXPECT_FALSE(dir.IsSingletHeldBy(B(1), 6));
  EXPECT_FALSE(dir.IsDuplicated(B(1)));
  dir.AddHolder(B(1), 6);
  EXPECT_FALSE(dir.IsSingletHeldBy(B(1), 5));
  EXPECT_TRUE(dir.IsDuplicated(B(1)));
}

TEST(DirectoryTest, PickHolderExcludesRequester) {
  Directory dir;
  Rng rng(1);
  dir.AddHolder(B(1), 3);
  EXPECT_EQ(dir.PickHolder(B(1), 3, rng), kNoClient);  // Only holder excluded.
  dir.AddHolder(B(1), 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dir.PickHolder(B(1), 3, rng), 4u);
  }
}

TEST(DirectoryTest, PickHolderOfUntrackedBlock) {
  Directory dir;
  Rng rng(1);
  EXPECT_EQ(dir.PickHolder(B(9), 0, rng), kNoClient);
}

TEST(DirectoryTest, PickHolderCoversAllEligible) {
  Directory dir;
  Rng rng(2);
  for (ClientId c = 0; c < 5; ++c) {
    dir.AddHolder(B(1), c);
  }
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 500; ++i) {
    const ClientId picked = dir.PickHolder(B(1), 2, rng);
    ASSERT_LT(picked, 5u);
    ASSERT_NE(picked, 2u);
    ++seen[picked];
  }
  for (ClientId c = 0; c < 5; ++c) {
    if (c == 2) {
      EXPECT_EQ(seen[c], 0);
    } else {
      EXPECT_GT(seen[c], 50);  // Roughly uniform over 4 eligible holders.
    }
  }
}

TEST(DirectoryTest, KnownBlocksKeepFirstReferenceOrder) {
  Directory dir;
  dir.NoteBlock(B(7, 2));
  dir.AddHolder(B(7, 0), 1);
  dir.AddHolder(B(8, 0), 1);
  dir.NoteBlock(B(7, 1));
  dir.AddHolder(B(7, 2), 2);  // Already known: keeps its place.
  dir.NoteBlock(B(7, 0));
  EXPECT_EQ(Known(dir, 7), (std::vector<BlockId>{B(7, 2), B(7, 0), B(7, 1)}));
  EXPECT_EQ(Known(dir, 8), (std::vector<BlockId>{B(8, 0)}));
  EXPECT_TRUE(Known(dir, 9).empty());
  EXPECT_EQ(dir.HolderCount(B(7, 1)), 0u);  // Known, never held.

  // A block whose last holder left stays listed.
  dir.RemoveHolder(B(7, 2), 2);
  EXPECT_EQ(Known(dir, 7), (std::vector<BlockId>{B(7, 2), B(7, 0), B(7, 1)}));
  EXPECT_EQ(dir.NumTrackedBlocks(), 4u);
}

TEST(DirectoryTest, ReAddingAfterEmptyDoesNotDuplicateFileIndex) {
  Directory dir;
  dir.AddHolder(B(7, 0), 1);
  dir.RemoveHolder(B(7, 0), 1);
  dir.AddHolder(B(7, 0), 2);
  EXPECT_EQ(dir.KnownBlocks(7).size(), 1u);
}

TEST(DirectoryTest, EraseFileVisitsHoldersThenDropsAllState) {
  Directory dir;
  std::uint64_t ops = 0;
  dir.set_op_counter(&ops);
  dir.AddHolder(B(7, 1), 1);
  dir.AddHolder(B(7, 1), 2);
  dir.NoteBlock(B(7, 0));
  dir.AddHolder(B(7, 3), 3);
  dir.AddHolder(B(8, 0), 1);
  ops = 0;

  std::vector<std::pair<BlockId, std::size_t>> visited;
  dir.EraseFile(7, [&](BlockId block, const Directory::HolderList& holders) {
    // The block's record is still there while it is visited.
    EXPECT_EQ(dir.HolderCount(block), holders.size());
    visited.emplace_back(block, holders.size());
  });
  EXPECT_EQ(visited, (std::vector<std::pair<BlockId, std::size_t>>{
                         {B(7, 1), 2}, {B(7, 0), 0}, {B(7, 3), 1}}));
  EXPECT_EQ(ops, 3u);  // One erase per known block, held or not.
  EXPECT_TRUE(Known(dir, 7).empty());
  EXPECT_EQ(dir.HolderCount(B(7, 1)), 0u);
  EXPECT_EQ(dir.NumTrackedBlocks(), 1u);

  // The other file is intact.
  EXPECT_EQ(Known(dir, 8), (std::vector<BlockId>{B(8, 0)}));
  EXPECT_TRUE(dir.IsSingletHeldBy(B(8, 0), 1));

  // Idempotent: nothing left to visit or count.
  dir.EraseFile(7, [&](BlockId, const Directory::HolderList&) { ADD_FAILURE(); });
  EXPECT_EQ(ops, 3u);
}

TEST(DirectoryTest, ForEachBlockSkipsEmptyHolderSets) {
  Directory dir;
  dir.AddHolder(B(1), 1);
  dir.AddHolder(B(2), 2);
  dir.RemoveHolder(B(2), 2);
  int visited = 0;
  dir.ForEachBlock([&](BlockId block, const Directory::HolderList& holders) {
    EXPECT_EQ(block, B(1));
    EXPECT_EQ(holders.size(), 1u);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
  // The emptied block keeps its record, so both maps still hold two keys.
  EXPECT_EQ(dir.HoldersIndexStats().size, 2u);
  EXPECT_EQ(dir.FileIndexStats().size, 2u);
  EXPECT_GT(dir.HoldersIndexStats().buckets, 0u);
  const Directory::DuplicationCounts counts = dir.CountDuplication();
  EXPECT_EQ(counts.singlets, 1u);
  EXPECT_EQ(counts.duplicates, 0u);
}

// ---- sharded mode (scale-out layout; see the header comment) ----

TEST(DirectoryShardsTest, ShardCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(Directory(nullptr, 0).num_shards(), 1u);
  EXPECT_EQ(Directory(nullptr, 1).num_shards(), 1u);
  EXPECT_EQ(Directory(nullptr, 3).num_shards(), 4u);
  EXPECT_EQ(Directory(nullptr, 8).num_shards(), 8u);
  EXPECT_EQ(Directory(nullptr, 33).num_shards(), 64u);
}

TEST(DirectoryShardsTest, ShardedBehavesLikeUnsharded) {
  Directory flat(nullptr, 1);
  Directory sharded(nullptr, 8);
  for (Directory* dir : {&flat, &sharded}) {
    dir->Reserve(1024, 128);
    for (std::uint32_t file = 0; file < 50; ++file) {
      for (std::uint32_t idx = 0; idx < 3; ++idx) {
        dir->AddHolder(B(file, idx), file % 7);
        dir->AddHolder(B(file, idx), (file + 1) % 7);
      }
    }
  }
  EXPECT_EQ(sharded.NumTrackedBlocks(), flat.NumTrackedBlocks());
  for (std::uint32_t file = 0; file < 50; ++file) {
    // File-keyed routing keeps a file's blocks in one shard, so the
    // per-file view — the delete/refresh iteration — is identical, order
    // included.
    EXPECT_EQ(Known(sharded, file), Known(flat, file)) << "file " << file;
    for (std::uint32_t idx = 0; idx < 3; ++idx) {
      EXPECT_EQ(sharded.HolderCount(B(file, idx)), flat.HolderCount(B(file, idx)));
    }
  }

  // Erase and empty-set behaviour match too.
  const auto ignore = [](BlockId, const Directory::HolderList&) {};
  flat.EraseFile(10, ignore);
  sharded.EraseFile(10, ignore);
  EXPECT_TRUE(Known(sharded, 10).empty());
  EXPECT_EQ(Known(sharded, 11), Known(flat, 11));
  EXPECT_EQ(sharded.NumTrackedBlocks(), flat.NumTrackedBlocks());
}

TEST(DirectoryShardsTest, AggregatedStatsCoverAllShards) {
  Directory dir(nullptr, 4);
  for (std::uint32_t file = 0; file < 200; ++file) {
    dir.AddHolder(B(file, 0), 1);
  }
  const FlatMapStats holders = dir.HoldersIndexStats();
  EXPECT_EQ(holders.size, 200u);
  EXPECT_GT(holders.buckets, 0u);
  const FlatMapStats files = dir.FileIndexStats();
  EXPECT_EQ(files.size, 200u);

  const Directory::DuplicationCounts dup = dir.CountDuplication();
  EXPECT_EQ(dup.singlets, 200u);
  EXPECT_EQ(dup.duplicates, 0u);

  std::size_t visited = 0;
  dir.ForEachBlock([&](BlockId, const Directory::HolderList&) { ++visited; });
  EXPECT_EQ(visited, 200u);
}

class DirectoryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint32_t>> {};

// Property: holder counts always equal the reference multimap's, at any
// shard count.
TEST_P(DirectoryProperty, MatchesReferenceModel) {
  Directory dir(nullptr, std::get<1>(GetParam()));
  std::map<std::uint64_t, std::set<ClientId>> reference;
  unsigned state = std::get<0>(GetParam());
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 4000; ++step) {
    const BlockId block{next() % 20, next() % 4};
    const ClientId client = next() % 8;
    switch (next() % 3) {
      case 0:
        dir.AddHolder(block, client);
        reference[block.Pack()].insert(client);
        break;
      case 1:
        dir.RemoveHolder(block, client);
        reference[block.Pack()].erase(client);
        break;
      case 2:
        dir.EraseFile(block.file, [](BlockId, const Directory::HolderList&) {});
        for (std::uint32_t idx = 0; idx < 4; ++idx) {
          reference[BlockId{block.file, idx}.Pack()].clear();
        }
        break;
    }
    ASSERT_EQ(dir.HolderCount(block), reference[block.Pack()].size());
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndShards, DirectoryProperty,
                         ::testing::Combine(::testing::Values(1u, 17u, 333u, 9999u),
                                            ::testing::Values(1u, 8u)));

}  // namespace
}  // namespace coopfs
