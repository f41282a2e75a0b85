#include "src/sim/validation.h"

#include <gtest/gtest.h>

#include "src/sim/config.h"

namespace coopfs {
namespace {

SimulationConfig Config() {
  SimulationConfig config;
  config.client_cache_blocks = 4;
  config.server_cache_blocks = 4;
  return config;
}

TEST(ValidationTest, FreshContextIsConsistent) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
}

TEST(ValidationTest, ConsistentStatePasses) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.client_cache(0).Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 0);
  EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
  EXPECT_EQ(context.client_cache_if_materialized(1), nullptr);  // Checking built no cache.
}

TEST(ValidationTest, DetectsCachedButUntracked) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.client_cache(0).Insert(BlockId{1, 0});  // No directory entry.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("not a directory holder"), std::string::npos);
}

TEST(ValidationTest, DetectsTrackedButNotCached) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.directory().AddHolder(BlockId{1, 0}, 1);  // Client 1 caches nothing.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("but it does not"), std::string::npos);
}

TEST(ValidationTest, DetectsHolderOutOfRange) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.directory().AddHolder(BlockId{1, 0}, 9);
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(ValidationTest, DetectsFalseSingletMarking) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  CacheEntry& entry = context.client_cache(0).Insert(BlockId{1, 0});
  context.client_cache(1).Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 0);
  context.directory().AddHolder(BlockId{1, 0}, 1);
  entry.singlet_flag = true;  // Lie: the block is duplicated.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("marked singlet"), std::string::npos);
}

// Client caches that track victim classes must sit on the sublists their
// fields call for; an in-place change without Reclassify is caught.
TEST(ValidationTest, DetectsEntryOffItsVictimClass) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.TrackClientVictimClasses(2);
  BlockCache& cache = context.client_cache(0);
  CacheEntry& entry = cache.Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 0);
  entry.recirculation_count = 1;
  cache.Reclassify(entry);
  EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());

  entry.recirculation_count = 2;  // No Reclassify: still on sublist 1.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("its fields call for 2"), std::string::npos)
      << status.message();
}

TEST(ValidationTest, DetectsVictimCountBeyondTrackedRange) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.TrackClientVictimClasses(2);
  CacheEntry& entry = context.client_cache(1).Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 1);
  entry.recirculation_count = 3;
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("beyond the tracked range"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace coopfs
