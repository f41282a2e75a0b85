// Randomized stress coverage for RunSimulationsParallel.
//
// The sweep hands jobs to workers through one atomic index and has each
// worker publish into a cache-line-padded result slot from its own arena:
// a mis-published slot or a skipped index shows up as a wrong or missing
// result at some position, not as a crash. This suite drives randomized job mixes —
// varying cache sizes, all policies, and deliberately failing jobs
// interleaved at random positions — across thread widths from serial to
// more-threads-than-jobs, and asserts the full contract every time:
//
//   * results come back in submission order, one per job;
//   * failing jobs carry their status without disturbing neighbors;
//   * every width returns what the serial run returns.
//
// The asan/tsan presets run this suite; the arena-backed context makes any
// cross-job memory reuse bug an immediate sanitizer report.
#include <cstddef>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/sweep.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

class SweepStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig workload = SmallTestWorkloadConfig(77);
    workload.num_events = 4000;
    trace_ = new Trace(GenerateWorkload(workload));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  // A randomized mix of valid jobs (random policy, random cache geometry)
  // and failing jobs. A failing job caps num_clients at 1 against the
  // multi-client workload, which trips the simulator's event-range check
  // mid-replay — a real mid-run failure, not a constructor rejection.
  static std::vector<SimulationJob> RandomJobs(Rng& rng, std::size_t count,
                                               std::set<std::size_t>* failing) {
    const std::vector<PolicyKind> kinds = AllPolicyKinds();
    std::vector<SimulationJob> jobs;
    for (std::size_t i = 0; i < count; ++i) {
      SimulationJob job;
      job.config = TinyConfig(4 + rng.Next() % 60, 16 + rng.Next() % 112);
      job.kind = kinds[rng.Next() % kinds.size()];
      if (rng.Next() % 4 == 0) {
        job.config.num_clients = 1;
        failing->insert(i);
      }
      jobs.push_back(job);
    }
    return jobs;
  }

  static Trace* trace_;
};

Trace* SweepStressTest::trace_ = nullptr;

TEST_F(SweepStressTest, RandomMixesAcrossThreadWidths) {
  Rng rng(20260809);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{16}}) {
    std::set<std::size_t> failing;
    const std::vector<SimulationJob> jobs = RandomJobs(rng, 24, &failing);
    const auto results = RunSimulationsParallel(*trace_, jobs, threads);
    ASSERT_EQ(results.size(), jobs.size()) << threads << " threads";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (failing.count(i) != 0) {
        EXPECT_FALSE(results[i].ok()) << threads << " threads, job " << i;
        EXPECT_EQ(results[i].status().code(), StatusCode::kInvalidArgument)
            << threads << " threads, job " << i;
      } else {
        ASSERT_TRUE(results[i].ok())
            << threads << " threads, job " << i << ": "
            << results[i].status().ToString();
        EXPECT_EQ(results[i]->policy_name,
                  MakePolicy(jobs[i].kind, jobs[i].params)->Name())
            << threads << " threads, job " << i;
      }
    }
  }
}

TEST_F(SweepStressTest, ParallelMixMatchesSerialReference) {
  Rng rng(99);
  std::set<std::size_t> failing;
  const std::vector<SimulationJob> jobs = RandomJobs(rng, 20, &failing);
  const auto serial = RunSimulationsParallel(*trace_, jobs, 1);
  for (std::size_t threads : {std::size_t{4}, std::size_t{16}}) {
    const auto parallel = RunSimulationsParallel(*trace_, jobs, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << "job " << i;
      if (!serial[i].ok()) {
        EXPECT_EQ(serial[i].status().code(), parallel[i].status().code());
        continue;
      }
      EXPECT_EQ(serial[i]->policy_name, parallel[i]->policy_name);
      for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
        EXPECT_EQ(serial[i]->level_counts.Get(level),
                  parallel[i]->level_counts.Get(level))
            << "job " << i << " level " << level;
      }
      EXPECT_EQ(serial[i]->server_load.TotalUnits(),
                parallel[i]->server_load.TotalUnits())
          << "job " << i;
    }
  }
}

TEST_F(SweepStressTest, AllJobsFailingStillCompletes) {
  std::vector<SimulationJob> jobs(8);
  for (SimulationJob& job : jobs) {
    job.config = TinyConfig(8, 16);
    job.config.num_clients = 1;  // Every job trips the event-range check.
  }
  const auto results = RunSimulationsParallel(*trace_, jobs, 4);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_FALSE(results[i].ok());
    EXPECT_EQ(results[i].status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace coopfs
