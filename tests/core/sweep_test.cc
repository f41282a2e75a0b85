#include "src/core/sweep.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

TEST(SweepTest, EmptyJobsGiveEmptyResults) {
  TraceBuilder builder;
  builder.Read(0, 1, 0);
  EXPECT_TRUE(RunSimulationsParallel(builder.Build(), {}).empty());
}

TEST(SweepTest, ResultsInJobOrder) {
  WorkloadConfig workload = SmallTestWorkloadConfig(5);
  workload.num_events = 3000;
  const Trace trace = GenerateWorkload(workload);
  std::vector<SimulationJob> jobs;
  for (std::size_t blocks : {4, 8, 16, 32}) {
    SimulationJob job;
    job.config = TinyConfig(blocks, 64);
    job.kind = PolicyKind::kBaseline;
    jobs.push_back(job);
  }
  const auto results = RunSimulationsParallel(trace, jobs, 4);
  ASSERT_EQ(results.size(), 4u);
  double last = 1e18;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Bigger caches help the baseline (tiny tolerance: the composed
    // client+server hierarchy is not a strict stack algorithm).
    EXPECT_LE(result->AverageReadTime(), last * 1.02);
    last = result->AverageReadTime();
  }
}

TEST(SweepTest, ParallelMatchesSerialExactly) {
  WorkloadConfig workload = SmallTestWorkloadConfig(15);
  workload.num_events = 5000;
  const Trace trace = GenerateWorkload(workload);
  std::vector<SimulationJob> jobs;
  for (PolicyKind kind : AllPolicyKinds()) {
    SimulationJob job;
    job.config = TinyConfig(16, 32);
    job.kind = kind;
    jobs.push_back(job);
  }
  const auto serial = RunSimulationsParallel(trace, jobs, 1);
  const auto parallel = RunSimulationsParallel(trace, jobs, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    EXPECT_EQ(serial[i]->policy_name, parallel[i]->policy_name);
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      EXPECT_EQ(serial[i]->level_counts.Get(level), parallel[i]->level_counts.Get(level))
          << serial[i]->policy_name << " level " << level;
    }
    EXPECT_EQ(serial[i]->server_load.TotalUnits(), parallel[i]->server_load.TotalUnits());
  }
}

TEST(SweepTest, FailedJobCarriesStatus) {
  const Trace empty;
  SimulationJob job;
  job.config = TinyConfig(4, 4);
  const auto results = RunSimulationsParallel(empty, {job}, 2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
}

TEST(SweepTest, MoreThreadsThanJobsIsFine) {
  WorkloadConfig workload = SmallTestWorkloadConfig(25);
  workload.num_events = 2000;
  const Trace trace = GenerateWorkload(workload);
  SimulationJob job;
  job.config = TinyConfig(8, 16);
  job.kind = PolicyKind::kNChance;
  const auto results = RunSimulationsParallel(trace, {job}, 64);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

// Kept under its old suite name; the sweep no longer takes a completion
// callback, so only the returned vector is checked.
TEST(SweepCallbackTest, InputOrderPreservedWithMoreThreadsThanJobs) {
  WorkloadConfig workload = SmallTestWorkloadConfig(8);
  workload.num_events = 2000;
  const Trace trace = GenerateWorkload(workload);
  std::vector<SimulationJob> jobs;
  for (std::size_t blocks : {4, 32, 8}) {
    SimulationJob job;
    job.config = TinyConfig(blocks, 64);
    job.kind = PolicyKind::kBaseline;
    jobs.push_back(job);
  }
  const auto wide = RunSimulationsParallel(trace, jobs, 16);
  const auto serial = RunSimulationsParallel(trace, jobs, 1);
  // Whatever order the workers finished in, the returned vector is in input
  // order and matches the serial run bit for bit on its counters.
  ASSERT_EQ(wide.size(), jobs.size());
  ASSERT_EQ(serial.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(wide[i].ok());
    ASSERT_TRUE(serial[i].ok());
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      EXPECT_EQ(wide[i]->level_counts.Get(level), serial[i]->level_counts.Get(level))
          << "job " << i << " level " << level;
    }
    EXPECT_EQ(wide[i]->server_load.TotalUnits(), serial[i]->server_load.TotalUnits())
        << "job " << i;
  }
}

}  // namespace
}  // namespace coopfs
