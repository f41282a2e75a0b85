#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include "src/core/baseline.h"
#include "src/engine/cache_engine.h"
#include "src/sim/validation.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

TEST(SimulatorTest, EmptyTraceIsInvalid) {
  const Trace empty;
  Simulator simulator(TinyConfig(2, 2), &empty);
  BaselinePolicy policy;
  EXPECT_EQ(simulator.Run(policy).status().code(), StatusCode::kInvalidArgument);
}

TEST(SimulatorTest, InfersClientCountFromTrace) {
  TraceBuilder builder;
  builder.Read(0, 1).Read(6, 1);
  Simulator simulator(TinyConfig(2, 2), &builder.Build());
  EXPECT_EQ(simulator.num_clients(), 7u);
}

TEST(SimulatorTest, ConfiguredClientCountWins) {
  TraceBuilder builder;
  builder.Read(0, 1);
  Simulator simulator(TinyConfig(2, 2, /*num_clients=*/12), &builder.Build());
  EXPECT_EQ(simulator.num_clients(), 12u);
}

TEST(SimulatorTest, EventClientOutOfConfiguredRangeFails) {
  TraceBuilder builder;
  builder.Read(5, 1);
  Simulator simulator(TinyConfig(2, 2, /*num_clients=*/2), &builder.Build());
  BaselinePolicy policy;
  EXPECT_EQ(simulator.Run(policy).status().code(), StatusCode::kInvalidArgument);
}

TEST(SimulatorTest, OutcomeLatencyMatchesFigure3) {
  const SimulationConfig config = TinyConfig(2, 2);  // ATM + Ruemmler-Wilkes.
  EXPECT_EQ(OutcomeLatency({CacheLevel::kLocalMemory, 0, false}, config), 250);
  EXPECT_EQ(OutcomeLatency({CacheLevel::kServerMemory, 2, true}, config), 1050);
  EXPECT_EQ(OutcomeLatency({CacheLevel::kRemoteClient, 3, true}, config), 1250);
  EXPECT_EQ(OutcomeLatency({CacheLevel::kRemoteClient, 2, true}, config), 1050);
  EXPECT_EQ(OutcomeLatency({CacheLevel::kServerDisk, 2, true}, config), 15'850);
}

TEST(SimulatorTest, BaselineLevelsOnScriptedTrace) {
  // Client 0 reads a block twice: first from disk, then locally.
  // Client 1 then reads it: server memory (baseline cannot use client 0).
  TraceBuilder builder;
  builder.Read(0, 1, 0).Read(0, 1, 0).Read(1, 1, 0);
  Simulator simulator(TinyConfig(4, 4), &builder.Build());
  BaselinePolicy policy;
  const Result<SimulationResult> result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reads, 3u);
  EXPECT_EQ(result->level_counts.Get(static_cast<std::size_t>(CacheLevel::kServerDisk)), 1u);
  EXPECT_EQ(result->level_counts.Get(static_cast<std::size_t>(CacheLevel::kLocalMemory)), 1u);
  EXPECT_EQ(result->level_counts.Get(static_cast<std::size_t>(CacheLevel::kServerMemory)), 1u);
  // Time bookkeeping: 15850 + 250 + 1050.
  EXPECT_NEAR(result->AverageReadTime(), (15'850.0 + 250.0 + 1050.0) / 3.0, 1e-9);
}

TEST(SimulatorTest, WarmupReadsAreNotCounted) {
  TraceBuilder builder;
  builder.Read(0, 1, 0).Read(0, 1, 0).Read(0, 1, 0);
  SimulationConfig config = TinyConfig(4, 4);
  config.warmup_events = 2;
  Simulator simulator(config, &builder.Build());
  BaselinePolicy policy;
  const Result<SimulationResult> result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reads, 1u);  // Only the post-warm-up read.
  EXPECT_EQ(result->level_counts.Get(static_cast<std::size_t>(CacheLevel::kLocalMemory)), 1u);
  // Warm-up still warmed the cache (the counted read was a local hit), and
  // warm-up server load was not charged.
  EXPECT_EQ(result->server_load.TotalUnits(), 0u);
}

TEST(SimulatorTest, PerClientStatsAreSeparate) {
  TraceBuilder builder;
  builder.Read(0, 1, 0).Read(0, 1, 0).Read(1, 2, 0);
  Simulator simulator(TinyConfig(4, 4), &builder.Build());
  BaselinePolicy policy;
  const Result<SimulationResult> result = simulator.Run(policy);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_client.size(), 2u);
  EXPECT_EQ(result->per_client[0].reads, 2u);
  EXPECT_EQ(result->per_client[1].reads, 1u);
  EXPECT_NEAR(result->per_client[0].total_time_us, 15'850.0 + 250.0, 1e-9);
  EXPECT_NEAR(result->per_client[1].total_time_us, 15'850.0, 1e-9);
}

TEST(SimulatorTest, RunIsRepeatable) {
  TraceBuilder builder;
  for (int i = 0; i < 50; ++i) {
    builder.Read(static_cast<ClientId>(i % 3), static_cast<FileId>(i % 7), 0);
  }
  Simulator simulator(TinyConfig(2, 2), &builder.Build());
  BaselinePolicy policy;
  const Result<SimulationResult> a = simulator.Run(policy);
  const Result<SimulationResult> b = simulator.Run(policy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->AverageReadTime(), b->AverageReadTime(), 1e-12);
  EXPECT_EQ(a->server_load.TotalUnits(), b->server_load.TotalUnits());
}

TEST(SimulatorTest, InspectorSeesFinalContext) {
  TraceBuilder builder;
  builder.Read(0, 1, 0);
  Simulator simulator(TinyConfig(4, 4), &builder.Build());
  BaselinePolicy policy;
  bool inspected = false;
  const Result<SimulationResult> result = simulator.Run(policy, [&](SimContext& context) {
    inspected = true;
    EXPECT_TRUE(context.client_cache(0).Contains(BlockId{1, 0}));
    EXPECT_TRUE(context.server_cache().Contains(BlockId{1, 0}));
    EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(inspected);
}

TEST(SimulatorTest, DiskFetchPopulatesServerAndClient) {
  TraceBuilder builder;
  builder.Read(0, 9, 3);
  Simulator simulator(TinyConfig(4, 4), &builder.Build());
  BaselinePolicy policy;
  simulator
      .Run(policy,
           [](SimContext& context) {
             EXPECT_TRUE(context.client_cache(0).Contains(BlockId{9, 3}));
             EXPECT_TRUE(context.server_cache().Contains(BlockId{9, 3}));
             EXPECT_EQ(context.directory().HolderCount(BlockId{9, 3}), 1u);
           })
      .status();
}

}  // namespace
}  // namespace coopfs
