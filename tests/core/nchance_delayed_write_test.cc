// N-Chance with n = 0 is Greedy Forwarding (paper §2.4) under delayed writes
// too. A dirty victim must be written back before it leaves the cache,
// whatever n is; otherwise its write is neither flushed, absorbed nor lost,
// and later readers go to disk.
#include <gtest/gtest.h>

#include "src/core/greedy.h"
#include "src/core/nchance.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

class NChanceGreedyDelayedWriteEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NChanceGreedyDelayedWriteEquivalence, ZeroChanceEqualsGreedy) {
  WorkloadConfig workload = SmallTestWorkloadConfig(GetParam());
  workload.num_events = 5000;
  const Trace trace = GenerateWorkload(workload);
  SimulationConfig config = TinyConfig(24, 48);
  config.write_policy = WritePolicy::kDelayedWrite;
  // Longer than the trace: every write-back comes from an eviction.
  config.write_delay = workload.duration * 2;
  Simulator simulator(config, &trace);
  GreedyPolicy greedy;
  NChancePolicy zero(0);
  const auto greedy_result = simulator.Run(greedy);
  const auto zero_result = simulator.Run(zero);
  ASSERT_TRUE(greedy_result.ok());
  ASSERT_TRUE(zero_result.ok());
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    EXPECT_EQ(greedy_result->level_counts.Get(level), zero_result->level_counts.Get(level))
        << "level " << level;
  }
  EXPECT_EQ(greedy_result->server_load.TotalUnits(), zero_result->server_load.TotalUnits());
  EXPECT_GT(greedy_result->flushed_writes, 0u);
  EXPECT_EQ(greedy_result->flushed_writes, zero_result->flushed_writes);
  EXPECT_EQ(greedy_result->absorbed_writes, zero_result->absorbed_writes);
  EXPECT_EQ(greedy_result->lost_writes, zero_result->lost_writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NChanceGreedyDelayedWriteEquivalence,
                         ::testing::Values(2ull, 13ull, 77ull, 1001ull));

}  // namespace
}  // namespace coopfs
