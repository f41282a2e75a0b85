// In-process multi-node serving harness over the CacheEngine.
//
// RunServe models a live cooperative-caching deployment: client_threads
// threads run get/put requests against shared manager/peer state (a sharded
// CacheEngine). Request stream t (one per thread) draws a fixed share of the
// requests for its slice of the clients, but any thread may draw a stream's
// next round or run a shard's next round.
//
// Rounds and the scheduler: stream t draws its requests in rounds of 4,096
// into a ring of round buffers, tagging each with its shard
// (CacheEngine::ShardForFile) and with seq = i x client_threads + t for its
// request i. Shard s runs round r once every stream has drawn round r and s
// has finished round r - 1: that round's requests on s, in seq order. The
// threads share these draw and run tasks through one mutex and condition
// variable, work-conserving: an idle thread runs a ready shard-round,
// picking the shard with the fewest finished rounds, or else draws the next
// round of the stream furthest behind. This is the paper's Hash-Distributed
// idea (§2.5) applied to execution as well as state: one thread at a time
// runs a shard, a shard's state moves between cores at most once per round,
// and the storm's floor is the busiest shard's own serial run rather than
// the slowest thread of every round. seq x 50 us is a request's simulated
// time, so no shared counter is needed.
//
// Each thread records the counted completions it runs in its own
// cache-line-padded slot (one sample vector per cache level for gets, one
// for puts). Once every shard has run every round, each thread sorts its
// own samples and checks its share of the shards (shards t,
// t + client_threads, ...). After the join, RunServe reads every quantile
// from the threads' sorted runs by rank selection (QuantileFromSortedRuns);
// no merged copy of the samples is built. The storm threads are the only
// threads.
//
// Latency methodology (docs/serving.md): each completed operation is charged
//
//   modeled service time (the paper's Table 1/Figure 3 constants via
//   OutcomeLatency / WriteLatency — memory copy, per-hop network cost,
//   block transfer, disk access)
//   + measured wall-clock time of the engine call itself (hot-path structure
//   work, the part replay cannot show; one thread at a time runs a shard,
//   so the call never waits for the shard's lock).
//
// so the reported p50/p95/p99/p999 per level (local / remote-client /
// server-memory / disk) combine the paper's technology model with the real
// cost of the serving structures. Throughput is counted (post-warm-up) ops
// divided by the storm's wall time, warm-up included, up to the latest
// thread's last request (ServeReport::wall_seconds).
//
// The key mix is configurable: a Zipf-skewed synthetic key space, or a
// trace-derived mix replayed from the deterministic Sprite-like workload
// generator (src/trace/workload.h). Each shard's operation sequence is fixed
// by the options at any thread count, so everything but the measured time is
// deterministic: a storm on S shards performs S Simulator::Run replays, one
// per shard, of the seq-ordered requests whose files map to that shard, with
// that shard's capacities and seed.
#ifndef COOPFS_SRC_SERVE_SERVE_HARNESS_H_
#define COOPFS_SRC_SERVE_SERVE_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/policy_factory.h"
#include "src/obs/bench_report.h"
#include "src/sim/config.h"

namespace coopfs {

// Which distribution the load generator draws keys from.
enum class ServeKeyMix {
  kZipf,   // Zipf(zipf_s) over num_files x blocks_per_file blocks.
  kTrace,  // Read/write events replayed from the Sprite-like generator.
};

constexpr const char* ServeKeyMixName(ServeKeyMix mix) {
  return mix == ServeKeyMix::kTrace ? "trace" : "zipf";
}

struct ServeOptions {
  // Storm threads, and request streams: stream t draws ops/client_threads
  // requests (remainders to the lowest-indexed streams). Any thread draws
  // any stream's next round or runs any shard's next ready round.
  std::uint32_t client_threads = 8;

  // Engine shards, at most 64. 0 derives the smallest power of two >=
  // client_threads, clamped to [1, 64]. Each shard holds 1/shards of every
  // client's cache and of the server cache, so the hit mix depends on the
  // shard count as well as on the configured capacities.
  std::uint32_t shards = 0;

  // Simulated client machines (>= client_threads; requests carry a client id
  // drawn from the drawing thread's slice of this population).
  std::uint32_t num_clients = 42;

  PolicyKind policy = PolicyKind::kNChance;
  PolicyParams params;

  // Counted requests (after warm-up). Warm-up requests run identically but
  // are not recorded, so cold-start disk fills do not dominate the tails.
  std::uint64_t ops = 200'000;
  std::uint64_t warmup_ops = 20'000;

  // P(request is a get); the rest are write-through puts.
  double get_fraction = 0.9;

  // Key mix.
  ServeKeyMix mix = ServeKeyMix::kZipf;
  std::uint32_t num_files = 2'000;      // kZipf key space.
  std::uint32_t blocks_per_file = 16;
  double zipf_s = 0.9;
  std::uint64_t trace_events = 100'000;  // kTrace pool size cap.

  // Seed for per-thread request streams and the trace pool.
  std::uint64_t seed = 1;

  // Cache capacities and timing constants. num_clients above overrides
  // config.num_clients.
  SimulationConfig config;
};

struct ServeReport {
  std::string policy_name;
  std::uint32_t client_threads = 0;
  std::uint32_t shards = 0;
  std::uint32_t num_clients = 0;
  std::string mix;

  std::uint64_t ops = 0;  // Counted requests (get_ops + put_ops).
  std::uint64_t get_ops = 0;
  std::uint64_t put_ops = 0;
  // Storm wall time, warm-up included: from the threads' start to the end of
  // the latest thread's last request. The sorting, the invariant check and
  // the statistics after it are not included.
  double wall_seconds = 0.0;
  double ops_per_sec = 0.0;   // Counted ops / wall_seconds.

  // Gets by satisfying level (paper Figures 4-5 levels), with latency
  // distributions per level and aggregated, in modeled+measured
  // microseconds. Quantiles are exact: QuantileFromSortedRuns over the
  // threads' sorted samples gives the same value as QuantileFromSorted over
  // all counted samples of the series. The mean sums per-thread sums.
  std::array<std::uint64_t, kNumCacheLevels> get_level_counts{};
  std::array<BenchLatency, kNumCacheLevels> get_levels{};
  BenchLatency gets;
  BenchLatency puts;
  BenchLatency total;

  // Post-drain invariant check: CheckCacheDirectoryConsistency over every
  // shard once every shard has run every round, each thread checking its
  // share of the shards (no lost blocks, directory and holder state
  // agree, capacities respected). consistency_error names the
  // lowest-numbered failing shard.
  bool consistent = false;
  std::string consistency_error;

  // Exports the report as a "coopfs.bench/v1" document (suite
  // "coopfs_serve"): serve_throughput, serve_get_total, one
  // serve_get_<level> series per cache level, and serve_put_total, each
  // carrying the additive per-series latency object.
  BenchReport ToBenchReport() const;

  // Human-readable summary table.
  std::string ToString() const;
};

// Runs the storm. Returns kInvalidArgument for unrunnable options and
// kInternal when the post-drain invariant check fails.
Result<ServeReport> RunServe(const ServeOptions& options);

}  // namespace coopfs

#endif  // COOPFS_SRC_SERVE_SERVE_HARNESS_H_
