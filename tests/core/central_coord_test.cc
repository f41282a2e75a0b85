#include "src/core/central_coord.h"

#include <gtest/gtest.h>

#include "src/core/baseline.h"
#include "src/sim/simulator.h"
#include "src/sim/validation.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

std::uint64_t Level(const SimulationResult& result, CacheLevel level) {
  return result.level_counts.Get(static_cast<std::size_t>(level));
}

TEST(CentralCoordTest, SplitsClientCache) {
  CentralCoordPolicy policy(0.8);
  SimulationConfig config = TinyConfig(10, 4);
  EXPECT_EQ(policy.ClientCacheBlocks(config), 2u);  // 20% locally managed.
  CentralCoordPolicy half(0.5);
  EXPECT_EQ(half.ClientCacheBlocks(config), 5u);
  CentralCoordPolicy none(0.0);
  EXPECT_EQ(none.ClientCacheBlocks(config), 10u);
  CentralCoordPolicy all(1.0);
  EXPECT_EQ(all.ClientCacheBlocks(config), 0u);
}

TEST(CentralCoordTest, NameIncludesFraction) {
  EXPECT_EQ(CentralCoordPolicy(0.8).Name(), "Central Coordination (80%)");
}

TEST(CentralCoordTest, ServerEvictionFeedsGlobalCache) {
  // Server capacity 1: fetching f2 evicts f1 into the global distributed
  // cache; a later read of f1 by client 1 is a remote-client hit.
  TraceBuilder builder;
  builder.Read(0, 1, 0).Read(0, 2, 0).Read(1, 1, 0);
  Simulator simulator(TinyConfig(10, 1, 2), &builder.Build());
  CentralCoordPolicy policy(0.8);
  const auto result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kRemoteClient), 1u);
  EXPECT_EQ(Level(*result, CacheLevel::kServerDisk), 2u);
  // Forwarded global hit: 3 hops = 1250 us.
  EXPECT_NEAR(result->level_time_us[static_cast<std::size_t>(CacheLevel::kRemoteClient)],
              1250.0, 1e-9);
}

TEST(CentralCoordTest, GlobalCacheHitRenewsEntry) {
  // Local section 1 block, server cache 1 block, global cache 2 blocks
  // (2 clients x 1 coordinated block at fraction 0.5). The global cache
  // fills with [f2, f1]; the read of f1 renews it, so the next overflow
  // evicts f2 — f1 survives to serve a second global hit while f2 must be
  // re-fetched from disk.
  TraceBuilder builder;
  builder.Read(0, 1, 0)   // Disk. Server {f1}.
      .Read(0, 2, 0)      // Disk. Global [f1].
      .Read(0, 3, 0)      // Disk. Global [f2, f1].
      .Read(0, 1, 0)      // Global hit on f1: renewed -> [f1, f2].
      .Read(0, 4, 0)      // Disk. Global [f3, f1, f2] -> evict f2.
      .Read(0, 1, 0)      // Global hit: f1 survived thanks to the renewal.
      .Read(0, 2, 0);     // Disk: f2 was the LRU victim.
  Simulator simulator(TinyConfig(2, 1, 2), &builder.Build());
  CentralCoordPolicy policy(0.5);
  const auto result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kRemoteClient), 2u);
  EXPECT_EQ(Level(*result, CacheLevel::kServerDisk), 5u);
}

TEST(CentralCoordTest, WriteInvalidatesGlobalCopy) {
  TraceBuilder builder;
  builder.Read(0, 1, 0)    // Disk; server = {f1}.
      .Read(0, 2, 0)       // Disk; server = {f2}; global gains stale f1.
      .Write(1, 1, 0);     // Must purge the stale global f1.
  Simulator simulator(TinyConfig(10, 1, 2), &builder.Build());
  CentralCoordPolicy policy(0.8);
  const auto result = simulator.Run(policy, [&policy](SimContext& context) {
    EXPECT_FALSE(policy.GlobalCacheContains(BlockId{1, 0}))
        << "stale globally managed copy must be invalidated by the write";
    // The fresh copy went write-through into the server cache, displacing
    // f2 into the global cache.
    EXPECT_TRUE(context.server_cache().Contains(BlockId{1, 0}));
    EXPECT_TRUE(policy.GlobalCacheContains(BlockId{2, 0}));
    EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
  });
  ASSERT_TRUE(result.ok());
}

TEST(CentralCoordTest, DeletePurgesGlobalCopy) {
  TraceBuilder builder;
  builder.Read(0, 1, 0)
      .Read(0, 2, 0)   // Global cache now holds f1.
      .Delete(1, 1)
      .Read(0, 1, 0);  // Must come from disk, not the global cache.
  Simulator simulator(TinyConfig(10, 1, 2), &builder.Build());
  CentralCoordPolicy policy(0.8);
  const auto result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kServerDisk), 3u);
  EXPECT_EQ(Level(*result, CacheLevel::kRemoteClient), 0u);
}

TEST(CentralCoordTest, ZeroLocalFractionStillServesReads) {
  // 100% coordinated: clients have no local sections at all.
  TraceBuilder builder;
  builder.Read(0, 1, 0).Read(0, 1, 0);
  Simulator simulator(TinyConfig(4, 2, 2), &builder.Build());
  CentralCoordPolicy policy(1.0);
  const auto result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kLocalMemory), 0u);
  EXPECT_EQ(Level(*result, CacheLevel::kServerMemory), 1u);  // Second read.
}

TEST(CentralCoordTest, ZeroLocalFractionDeletePurgesServerAndGlobalCopies) {
  // No client ever holds a block, so only the directory's known-block
  // lists (not its holder lists) can reach these copies on delete.
  TraceBuilder builder;
  builder.Read(0, 1, 0)    // Disk; server = {f1}.
      .Read(0, 2, 0)       // Disk; server = {f2}; global gains f1.
      .Delete(1, 1)        // Must purge the global f1.
      .Delete(1, 2)        // Must purge the server's f2.
      .Read(0, 1, 0)       // Disk.
      .Read(0, 2, 0);      // Disk.
  Simulator simulator(TinyConfig(4, 1, 2), &builder.Build());
  CentralCoordPolicy policy(1.0);
  const auto result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kServerDisk), 4u);
  // One record erased per known block, held or not.
  EXPECT_EQ(result->counters.directory_ops, 2u);
}

TEST(BestCaseTest, DoublesClientMemory) {
  BestCasePolicy policy;
  SimulationConfig config = TinyConfig(10, 4);
  // Locally managed half is a full-size private cache.
  EXPECT_EQ(policy.ClientCacheBlocks(config), 10u);
  EXPECT_EQ(policy.Name(), "Best Case");
}

TEST(BestCaseTest, LocalHitsMatchBaselineGreedyManagement) {
  // The best case's local sections are managed exactly like the baseline's
  // full-size caches, so local hit counts must match the baseline's.
  WorkloadConfig workload = SmallTestWorkloadConfig(31);
  workload.num_events = 5000;
  const Trace trace = GenerateWorkload(workload);
  Simulator simulator(TinyConfig(16, 8), &trace);
  BestCasePolicy best;
  const auto best_result = simulator.Run(best);
  ASSERT_TRUE(best_result.ok());

  BaselinePolicy baseline;
  const auto base_result = simulator.Run(baseline);
  ASSERT_TRUE(base_result.ok());
  EXPECT_EQ(Level(*best_result, CacheLevel::kLocalMemory),
            Level(*base_result, CacheLevel::kLocalMemory));
}

class CentralFractionProperty : public ::testing::TestWithParam<double> {};

// Property: capacities always partition the configured cache exactly, and
// runs stay internally consistent for any coordinated fraction.
TEST_P(CentralFractionProperty, PartitionIsExactAndRunsAreConsistent) {
  const double fraction = GetParam();
  CentralCoordPolicy policy(fraction);
  SimulationConfig config = TinyConfig(20, 8);
  const std::size_t local = policy.ClientCacheBlocks(config);
  EXPECT_LE(local, 20u);

  WorkloadConfig workload = SmallTestWorkloadConfig(47);
  workload.num_events = 4000;
  const Trace trace = GenerateWorkload(workload);
  Simulator simulator(config, &trace);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    const Status status = CheckCacheDirectoryConsistency(context);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fractions, CentralFractionProperty,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0));

}  // namespace
}  // namespace coopfs
