#include "src/cache/block_cache.h"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace coopfs {
namespace {

BlockId B(std::uint32_t file, std::uint32_t block = 0) { return BlockId{file, block}; }

TEST(BlockCacheTest, StartsEmpty) {
  BlockCache cache(4);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_FALSE(cache.Full());
  EXPECT_FALSE(cache.Contains(B(1)));
  EXPECT_EQ(cache.Find(B(1)), nullptr);
  EXPECT_EQ(cache.Lru(), nullptr);
  EXPECT_EQ(cache.Mru(), nullptr);
}

TEST(BlockCacheTest, InsertAndFind) {
  BlockCache cache(4);
  CacheEntry& entry = cache.Insert(B(1, 2));
  EXPECT_EQ(entry.block, B(1, 2));
  EXPECT_TRUE(cache.Contains(B(1, 2)));
  EXPECT_EQ(cache.Find(B(1, 2)), &entry);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, LruOrderFollowsInsertion) {
  BlockCache cache(3);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  EXPECT_EQ(cache.Lru()->block, B(1));
  EXPECT_EQ(cache.Mru()->block, B(3));
}

TEST(BlockCacheTest, TouchRenews) {
  BlockCache cache(3);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  EXPECT_NE(cache.Touch(B(1)), nullptr);
  EXPECT_EQ(cache.Mru()->block, B(1));
  EXPECT_EQ(cache.Lru()->block, B(2));
  EXPECT_EQ(cache.Touch(B(99)), nullptr);
}

TEST(BlockCacheTest, FindDoesNotRenew) {
  BlockCache cache(3);
  cache.Insert(B(1));
  cache.Insert(B(2));
  EXPECT_NE(cache.Find(B(1)), nullptr);
  EXPECT_EQ(cache.Lru()->block, B(1));
}

TEST(BlockCacheTest, EvictLruReturnsVictim) {
  BlockCache cache(2);
  cache.Insert(B(1)).recirculation_count = 2;
  cache.Insert(B(2));
  const std::optional<CacheEntry> victim = cache.EvictLru();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, B(1));
  EXPECT_EQ(victim->recirculation_count, 2);  // Metadata survives the copy.
  EXPECT_FALSE(cache.Contains(B(1)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, EvictLruOnEmptyIsNullopt) {
  BlockCache cache(2);
  EXPECT_FALSE(cache.EvictLru().has_value());
}

TEST(BlockCacheTest, EraseRemoves) {
  BlockCache cache(2);
  cache.Insert(B(1));
  EXPECT_TRUE(cache.Erase(B(1)));
  EXPECT_FALSE(cache.Erase(B(1)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCacheTest, ZeroCapacityRejectsInsertion) {
  BlockCache cache(0);
  EXPECT_FALSE(cache.CanInsert());
  EXPECT_TRUE(cache.Full());
}

TEST(BlockCacheTest, ScanFromLruVisitsInLruOrder) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  std::vector<BlockId> visited;
  cache.ScanFromLru([&](CacheEntry& entry) {
    visited.push_back(entry.block);
    return false;
  });
  EXPECT_EQ(visited, (std::vector<BlockId>{B(1), B(2), B(3)}));
}

TEST(BlockCacheTest, ScanFromLruStopsOnMatch) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  CacheEntry* found = cache.ScanFromLru([](CacheEntry& entry) { return entry.block == B(2); });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->block, B(2));
}

TEST(BlockCacheTest, ScanFromLruRespectsLimit) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  int seen = 0;
  CacheEntry* found = cache.ScanFromLru(
      [&](CacheEntry&) {
        ++seen;
        return false;
      },
      2);
  EXPECT_EQ(found, nullptr);
  EXPECT_EQ(seen, 2);
}

TEST(BlockCacheTest, ForEachEntryVisitsAll) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  int count = 0;
  cache.ForEachEntry([&count](const CacheEntry&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(BlockCacheTest, ClearEmptiesCache) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lru(), nullptr);
  cache.Insert(B(3));  // Still usable.
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, EntryMetadataDefaults) {
  BlockCache cache(1);
  const CacheEntry& entry = cache.Insert(B(7));
  EXPECT_EQ(entry.recirculation_count, 0);
  EXPECT_FALSE(entry.singlet_flag);
  EXPECT_FALSE(entry.recirculating());
  EXPECT_EQ(entry.last_ref, 0);
}

TEST(BlockCacheTest, EntryIsOneCacheLine) {
  EXPECT_EQ(sizeof(CacheEntry), 64u);
  EXPECT_EQ(alignof(BlockCache), 64u);
}

// ---- Victim classes ----

// The blocks on `victim_class`'s sublist, oldest first.
std::vector<BlockId> ClassOrder(const BlockCache& cache, std::size_t victim_class) {
  std::vector<BlockId> blocks;
  for (const CacheEntry* entry = cache.OldestInClass(victim_class); entry != nullptr;
       entry = cache.NewerInClass(*entry)) {
    blocks.push_back(entry->block);
  }
  return blocks;
}

TEST(BlockCacheVictimClassTest, UntrackedCacheKeepsNoSublists) {
  BlockCache cache(4);
  EXPECT_FALSE(cache.tracks_victim_classes());
  EXPECT_EQ(cache.victim_class_count(), 0u);
  EXPECT_EQ(cache.Insert(B(1)).victim_class, CacheEntry::kNoClass);
}

TEST(BlockCacheVictimClassTest, ClassFollowsCountAndFlag) {
  BlockCache cache(4);
  cache.TrackVictimClasses(2);
  ASSERT_EQ(cache.victim_class_count(), 3u);
  CacheEntry& entry = cache.Insert(B(1));
  EXPECT_EQ(entry.victim_class, BlockCache::kUnqueried);
  entry.singlet_flag = true;
  cache.Reclassify(entry);
  EXPECT_EQ(entry.victim_class, CacheEntry::kNoClass);
  EXPECT_EQ(cache.OldestInClass(BlockCache::kUnqueried), nullptr);
  entry.recirculation_count = 2;
  cache.Reclassify(entry);
  EXPECT_EQ(cache.OldestInClass(2), &entry);
  EXPECT_TRUE(cache.Erase(B(1)));
  EXPECT_EQ(cache.OldestInClass(2), nullptr);
}

// An in-place change puts the entry where its stamp belongs, not at the
// new end: the sublist stays in LRU order.
TEST(BlockCacheVictimClassTest, ReclassifyPlacesEntryByStamp) {
  BlockCache cache(5);
  cache.TrackVictimClasses(1);
  for (std::uint32_t file = 1; file <= 5; ++file) {
    cache.Insert(B(file));
  }
  for (std::uint32_t file : {2u, 4u}) {
    cache.Find(B(file))->singlet_flag = true;
    cache.Reclassify(*cache.Find(B(file)));
  }
  EXPECT_EQ(ClassOrder(cache, BlockCache::kUnqueried), (std::vector<BlockId>{B(1), B(3), B(5)}));
  for (std::uint32_t file : {4u, 2u}) {
    cache.Find(B(file))->singlet_flag = false;
    cache.Reclassify(*cache.Find(B(file)));
  }
  EXPECT_EQ(ClassOrder(cache, BlockCache::kUnqueried),
            (std::vector<BlockId>{B(1), B(2), B(3), B(4), B(5)}));
  cache.Touch(B(2));
  EXPECT_EQ(ClassOrder(cache, BlockCache::kUnqueried),
            (std::vector<BlockId>{B(1), B(3), B(4), B(5), B(2)}));
}

TEST(BlockCacheVictimClassTest, TrackingStartsFromCurrentContents) {
  BlockCache cache(4);
  cache.Insert(B(1)).recirculation_count = 1;
  cache.Insert(B(2));
  cache.Insert(B(3)).singlet_flag = true;
  cache.Insert(B(4)).recirculation_count = 1;
  cache.TrackVictimClasses(1);
  EXPECT_EQ(ClassOrder(cache, BlockCache::kUnqueried), (std::vector<BlockId>{B(2)}));
  EXPECT_EQ(ClassOrder(cache, 1), (std::vector<BlockId>{B(1), B(4)}));
  cache.Clear();
  EXPECT_EQ(cache.OldestInClass(1), nullptr);
  EXPECT_EQ(cache.Insert(B(5)).victim_class, BlockCache::kUnqueried);
}

// Differential: after any mix of Insert, Touch, Erase and in-place flag and
// count changes (each followed by Reclassify), the sublists agree with
// ScanFromLru over the whole cache: the unqueried sublist is the scan's
// unqueried entries in order, and each count sublist's oldest entry is the
// scan's first entry with that count.
TEST(BlockCacheVictimClassTest, SublistsMatchFilteredScans) {
  constexpr std::size_t kMaxCount = 255;
  BlockCache cache(48);
  cache.TrackVictimClasses(kMaxCount);
  Rng rng(20260417);
  for (int step = 0; step < 20'000; ++step) {
    const BlockId block = B(static_cast<std::uint32_t>(rng.NextBelow(96)));
    CacheEntry* entry = cache.Find(block);
    switch (rng.NextBelow(5)) {
      case 0:
        if (entry == nullptr) {
          if (cache.Full()) {
            cache.EvictLru();
          }
          cache.Insert(block);
        }
        break;
      case 1:
        cache.Touch(block);
        break;
      case 2:
        cache.Erase(block);
        break;
      case 3:
        if (entry != nullptr) {
          entry->singlet_flag = !entry->singlet_flag;
          cache.Reclassify(*entry);
        }
        break;
      default:
        if (entry != nullptr) {
          // Mostly small counts, so classes hold several entries; any byte.
          entry->recirculation_count = static_cast<std::uint8_t>(
              rng.NextBelow(4) == 0 ? rng.NextBelow(kMaxCount + 1) : rng.NextBelow(4));
          cache.Reclassify(*entry);
        }
        break;
    }

    std::vector<BlockId> unqueried;
    std::array<std::optional<BlockId>, kMaxCount + 1> first_with_count;
    std::optional<BlockId> fewest_recirculations;
    std::size_t fewest = kMaxCount + 1;
    cache.ScanFromLru([&](const CacheEntry& scanned) {
      if (!scanned.recirculating() && !scanned.singlet_flag) {
        unqueried.push_back(scanned.block);
      }
      if (scanned.recirculating()) {
        if (!first_with_count[scanned.recirculation_count].has_value()) {
          first_with_count[scanned.recirculation_count] = scanned.block;
        }
        if (scanned.recirculation_count < fewest) {
          fewest = scanned.recirculation_count;
          fewest_recirculations = scanned.block;
        }
      }
      return false;
    });
    ASSERT_EQ(ClassOrder(cache, BlockCache::kUnqueried), unqueried) << "step " << step;
    std::optional<BlockId> lowest_class_oldest;
    for (std::size_t count = 1; count <= kMaxCount; ++count) {
      const CacheEntry* oldest = cache.OldestInClass(count);
      const std::optional<BlockId> got =
          oldest == nullptr ? std::nullopt : std::optional<BlockId>(oldest->block);
      ASSERT_EQ(got, first_with_count[count]) << "step " << step << ", count " << count;
      if (!lowest_class_oldest.has_value()) {
        lowest_class_oldest = got;
      }
    }
    ASSERT_EQ(lowest_class_oldest, fewest_recirculations) << "step " << step;
  }
}

class BlockCacheLruProperty : public ::testing::TestWithParam<std::size_t> {};

// Property: after any sequence of inserts/touches with LRU eviction, the
// cache holds exactly the `capacity` most recently used distinct blocks.
TEST_P(BlockCacheLruProperty, MatchesReferenceModel) {
  const std::size_t capacity = GetParam();
  BlockCache cache(capacity);
  std::vector<std::uint32_t> reference;  // front = MRU.
  unsigned state = 99;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 3000; ++step) {
    const std::uint32_t file = next() % 50;
    // Reference model update.
    auto it = std::find(reference.begin(), reference.end(), file);
    if (it != reference.end()) {
      reference.erase(it);
    }
    reference.insert(reference.begin(), file);
    if (reference.size() > capacity) {
      reference.pop_back();
    }
    // Cache update.
    if (cache.Touch(B(file)) == nullptr) {
      while (cache.Full()) {
        cache.EvictLru();
      }
      cache.Insert(B(file));
    }
    // Compare.
    ASSERT_EQ(cache.size(), reference.size());
    for (std::uint32_t expected : reference) {
      ASSERT_TRUE(cache.Contains(B(expected)));
    }
    ASSERT_EQ(cache.Mru()->block, B(reference.front()));
    ASSERT_EQ(cache.Lru()->block, B(reference.back()));
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BlockCacheLruProperty, ::testing::Values(1, 2, 5, 16, 49));

}  // namespace
}  // namespace coopfs
