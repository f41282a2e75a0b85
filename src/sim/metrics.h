// Simulation result metrics.
//
// The paper's methodology (§3): response time = per-level hit counts
// multiplied by constant per-level access times; no queueing. Metrics
// therefore records, for reads issued after warm-up, how many were satisfied
// at each level, the latency charged to each, per-client breakdowns, and the
// abstract server-load units of Figure 6.
#ifndef COOPFS_SRC_SIM_METRICS_H_
#define COOPFS_SRC_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/model/server_load.h"
#include "src/obs/stream_stats.h"
#include "src/sim/counters.h"

namespace coopfs {

// Per-client read accounting.
struct ClientReadStats {
  std::uint64_t reads = 0;
  double total_time_us = 0.0;

  double AverageReadTime() const {
    return reads == 0 ? 0.0 : total_time_us / static_cast<double>(reads);
  }
};

// Complete result of one simulation run.
struct SimulationResult {
  std::string policy_name;

  // Post-warm-up reads by satisfying level, and time attributed to each.
  CounterArray<kNumCacheLevels> level_counts;
  std::array<double, kNumCacheLevels> level_time_us{};

  // Exact per-client accounting (MetricsDetail::kFull); empty for kBounded
  // runs, which carry `bounded` below instead.
  std::vector<ClientReadStats> per_client;

  // O(K) streaming summary (MetricsDetail::kBounded): top-K hot blocks and
  // heavy readers, reservoir latency quantiles, fairness estimates. Absent
  // for kFull runs.
  std::optional<StreamSummary> bounded;

  ServerLoadTracker server_load;

  // Replay counters for the whole run, warm-up included. See counters.h.
  SimCounters counters;

  // Distribution of per-read latencies (log-bucketed). The paper reports
  // means; the histogram exposes tails (a disk access is ~60x a local hit,
  // so p99 tells a very different story than the average).
  LogHistogram latency_histogram;

  // Total reads counted (post-warm-up).
  std::uint64_t reads = 0;

  // Write-path accounting (delayed-write extension; all post-warm-up).
  std::uint64_t writes = 0;            // Write operations.
  std::uint64_t flushed_writes = 0;    // Dirty blocks written back.
  std::uint64_t absorbed_writes = 0;   // Died before flushing (overwrite or
                                       // delete) — saved server write traffic.
  std::uint64_t lost_writes = 0;       // Lost to client reboots (the delayed-
                                       // write reliability cost).

  // ---- Derived quantities ----

  double AverageReadTime() const;

  // Fraction of counted reads satisfied at `level`.
  double LevelFraction(CacheLevel level) const;

  // 1 - local fraction (height of the Figure 5 bars).
  double LocalMissRate() const;

  // Fraction of reads that reached the disk (bottom Figure 5 segment).
  double DiskRate() const;

  // Speedup of this run relative to `baseline` (paper [Henn90] convention:
  // baseline time / this time).
  double SpeedupOver(const SimulationResult& baseline) const;

  // Per-client speedup vs. the same client in `baseline`; clients with no
  // reads in either run yield 1.0.
  std::vector<double> PerClientSpeedup(const SimulationResult& baseline) const;

  // Server load relative to a baseline run (Figure 6's y-axis).
  double RelativeServerLoad(const SimulationResult& baseline) const;

  std::string ToString() const;
};

// Stack-deletion adjustment for snooped traces (paper §4.4, [Smit77]).
//
// A network-snooped trace misses reads that hit in client caches. Simulating
// the reduced trace still yields correct *counts* of remote/server/disk hits
// (Smith: omitting small-cache hits barely changes larger-cache faults), but
// the denominator must be the estimated full reference count. Given an
// assumed hidden local hit rate h, every visible read implies h/(1-h)
// invisible local hits. Returns a copy of `result` with the inferred local
// hits added at `local_time_us` each (paper: 250 µs).
SimulationResult ApplyStackDeletion(const SimulationResult& result, double hidden_local_hit_rate,
                                    double local_time_us);

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_METRICS_H_
