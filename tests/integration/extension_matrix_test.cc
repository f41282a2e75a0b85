// Interaction coverage: the extensions (delayed writes, churn, multiple
// servers) enabled *together*, across every policy. Each feature is tested
// in isolation elsewhere; this matrix catches interactions (e.g. a reboot
// losing a dirty block whose flush is still queued, on a striped server).
#include <tuple>

#include <gtest/gtest.h>

#include "src/core/policy_factory.h"
#include "src/obs/snapshot_sampler.h"
#include "src/sim/simulator.h"
#include "src/sim/validation.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

using MatrixParam = std::tuple<PolicyKind, std::uint32_t /*servers*/>;

class ExtensionMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ExtensionMatrixTest, AllExtensionsTogetherStayConsistent) {
  const auto [kind, servers] = GetParam();

  WorkloadConfig workload = SmallTestWorkloadConfig(321);
  workload.num_events = 8000;
  workload.mean_reboots_per_client = 4.0;  // Heavy churn.
  const Trace trace = GenerateWorkload(workload);

  SimulationConfig config;
  config.client_cache_blocks = 24;
  config.server_cache_blocks = 48;
  config.warmup_events = 2000;
  config.num_servers = servers;
  config.write_policy = WritePolicy::kDelayedWrite;
  config.write_delay = 2'000'000;  // Short delay: plenty of flush traffic.
  SnapshotSampler sampler;
  config.snapshot_sampler = &sampler;
  config.sample_interval = workload.duration / 20;

  Simulator simulator(config, &trace);
  auto policy = MakePolicy(kind);
  const auto result = simulator.Run(*policy, [](SimContext& context) {
    const Status status = CheckCacheDirectoryConsistency(context);
    ASSERT_TRUE(status.ok()) << status.ToString();
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Accounting stays complete under the full feature set.
  EXPECT_EQ(result->level_counts.Total(), result->reads);
  EXPECT_GT(result->reads, 0u);
  EXPECT_GT(result->writes, 0u);
  // Write fates partition: flushed + absorbed + lost + still-dirty; the
  // first three never exceed the writes observed.
  EXPECT_LE(result->flushed_writes + result->absorbed_writes + result->lost_writes,
            result->writes);
  // Churn must produce some lost dirty data under a delayed-write policy.
  EXPECT_GT(result->lost_writes + result->flushed_writes + result->absorbed_writes, 0u);
  // The sampled windows still sum to the totals.
  std::uint64_t window_reads = 0;
  for (const StateSample& sample : sampler.runs().front().samples) {
    window_reads += sample.CountedReads();
  }
  EXPECT_EQ(window_reads, result->reads);
  // Determinism under the full feature set.
  auto policy_again = MakePolicy(kind);
  const auto rerun = simulator.Run(*policy_again);
  ASSERT_TRUE(rerun.ok());
  EXPECT_NEAR(rerun->AverageReadTime(), result->AverageReadTime(), 1e-9);
  EXPECT_EQ(rerun->lost_writes, result->lost_writes);
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [kind, servers] = info.param;
  std::string name = std::string(PolicyKindName(kind)) + "_srv" + std::to_string(servers);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ExtensionMatrixTest,
                         ::testing::Combine(::testing::ValuesIn(AllPolicyKinds()),
                                            ::testing::Values(1u, 3u)),
                         MatrixName);

}  // namespace
}  // namespace coopfs
