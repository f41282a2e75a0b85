// Parallel execution of independent simulations.
//
// Every figure in the paper is a sweep: the same trace replayed under many
// (configuration, policy) pairs, each run fully independent (the trace is
// shared read-only; each run builds its own SimContext). RunSimulationsParallel
// fans the runs out over worker threads and returns results in input order.
// Determinism is unaffected: each run's result depends only on its own
// (config, policy), never on scheduling.
//
// Scaling design (see docs/performance.md): workers claim jobs from one
// atomic index; each worker owns a reusable Arena that every job it runs
// draws its SimContext from, so steady-state sweeping performs no
// global-heap traffic and workers never contend on the allocator; and
// per-job result slots are cache-line padded against false sharing.
#ifndef COOPFS_SRC_CORE_SWEEP_H_
#define COOPFS_SRC_CORE_SWEEP_H_

#include <cstddef>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"

namespace coopfs {

// One simulation job: a configuration and the policy to run under it.
struct SimulationJob {
  SimulationConfig config;
  PolicyKind kind = PolicyKind::kBaseline;
  PolicyParams params;
};

// Runs all jobs against `trace` using up to `threads` worker threads
// (0 = hardware concurrency; requests beyond the core count or the job
// count are clamped — oversubscribing a CPU-bound replay only adds context
// switches and cache thrash). With one worker left after the clamp, the jobs
// run on the calling thread. Results are returned in job order; a failed
// run carries its error Status. Each job runs against its worker's arena,
// which replaces any config.arena the job carries.
std::vector<Result<SimulationResult>> RunSimulationsParallel(
    const Trace& trace, const std::vector<SimulationJob>& jobs, std::size_t threads = 0);

}  // namespace coopfs

#endif  // COOPFS_SRC_CORE_SWEEP_H_
