// Simulation configuration (paper §3-4.1 defaults).
#ifndef COOPFS_SRC_SIM_CONFIG_H_
#define COOPFS_SRC_SIM_CONFIG_H_

#include <cstdint>
#include <string_view>

#include "src/common/types.h"
#include "src/model/network_model.h"

namespace coopfs {

class Arena;
class SnapshotSampler;
class TraceRecorder;

// How much memory per-client metrics accounting may use during a run.
enum class MetricsDetail {
  // Exact accounting: SimulationResult::per_client holds one entry per
  // client — the Figure 7 input, fine at the paper's 42 clients.
  kFull,
  // O(K) streaming accounting (src/obs/stream_stats.h): per-client arrays
  // are not allocated; the result instead carries a StreamSummary (top-K
  // hot blocks and heavy readers, reservoir latency quantiles, fairness
  // estimates) whose memory never depends on client count. Required for
  // the ROADMAP's 10k-1M client scale-out.
  kBounded,
};

constexpr const char* MetricsDetailName(MetricsDetail detail) {
  return detail == MetricsDetail::kBounded ? "bounded" : "full";
}

inline bool MetricsDetailFromName(std::string_view name, MetricsDetail& detail) {
  if (name == "full") {
    detail = MetricsDetail::kFull;
    return true;
  }
  if (name == "bounded") {
    detail = MetricsDetail::kBounded;
    return true;
  }
  return false;
}

// How client writes reach the server (extension; the paper assumes
// write-through, §3, and argues the choice does not affect read results).
enum class WritePolicy {
  // Every write is immediately sent to the server (paper's assumption).
  kWriteThrough,
  // Writes are held dirty in the writer's cache and flushed after
  // `write_delay`, on eviction, or never (if deleted/overwritten first —
  // the write is absorbed, or lost if the machine reboots). Reads by other
  // clients are served client-to-client from the dirty copy, the DASH-style
  // optimization the paper points to in §5.
  kDelayedWrite,
};

struct SimulationConfig {
  // Per-client cache capacity. Paper default: 16 MB (§4.1).
  std::size_t client_cache_blocks = BytesToBlocks(MiB(16));

  // Total central server cache capacity. Paper default: 128 MB (§4.1).
  // With multiple servers this memory is divided evenly among them.
  std::size_t server_cache_blocks = BytesToBlocks(MiB(128));

  // Number of file servers (extension). The paper's study uses the main
  // Sprite server only (§3 footnote 1); Sprite itself had several, and the
  // paper's xFS direction distributes the server entirely. Files are
  // assigned to servers by hashing the file id.
  std::uint32_t num_servers = 1;

  // Number of clients. 0 = infer from the trace (max client id + 1).
  std::uint32_t num_clients = 0;

  // Events consumed to warm the caches before metrics are collected. The
  // paper uses the first 400,000 of the Sprite accesses (§3) and the first
  // million Auspex events (§4.4).
  std::uint64_t warmup_events = 400'000;

  // Technology (paper §3: ATM numbers by default; Figure 13 sweeps this).
  NetworkModel network = NetworkModel::Atm155();
  DiskModel disk = DiskModel::RuemmlerWilkes();

  // Seed for policy-internal randomness (e.g. N-Chance peer choice).
  std::uint64_t seed = 1;

  // Write handling (extension; see WritePolicy).
  WritePolicy write_policy = WritePolicy::kWriteThrough;
  Micros write_delay = 30'000'000;  // Sprite's classic 30 s delay.

  // Event-level trace recording (src/obs/trace_recorder.h): when non-null,
  // the run appends one ReadSpan per replayed read plus discrete op records
  // to this recorder. Null (the default) compiles every hook down to a
  // pointer check. The recorder is not synchronized: configs of jobs that
  // run concurrently (RunSimulationsParallel) must each point at their own
  // recorder, or at null.
  TraceRecorder* trace_recorder = nullptr;

  // Periodic state sampling (src/obs/snapshot_sampler.h): when non-null and
  // `sample_interval` > 0, the run emits one StateSample per crossing of an
  // interval boundary in simulated time, plus warm-up-end and run-end
  // samples. Null (the default) compiles every hook down to a pointer
  // check. Like the recorder, the sampler is not synchronized: concurrent
  // jobs (RunSimulationsParallel) must each attach their own sampler.
  SnapshotSampler* snapshot_sampler = nullptr;

  // Interval between snapshot_sampler boundaries, in simulated
  // microseconds; <= 0 restricts the sampler to warm-up-end and run-end
  // samples only.
  Micros sample_interval = 0;

  // Bulk-allocation arena for the run's context (src/common/arena.h): when
  // non-null, the per-client/server BlockCaches and the directory draw
  // their storage from it instead of the global heap. The arena must outlive the run and is NOT reset by the simulator —
  // the owner resets it between runs. Not synchronized: concurrent runs
  // must each use their own arena (RunSimulationsParallel attaches one per
  // worker, replacing any set here), or null. Null (the default) keeps
  // everything on the global heap.
  Arena* arena = nullptr;

  // Per-client metrics memory policy (see MetricsDetail). kBounded replays
  // allocate no per-client arrays; SimulationResult::bounded carries the
  // streaming summary instead. Deterministic: the collector is seeded from
  // `seed`, so identical configs export identical bytes.
  MetricsDetail metrics_detail = MetricsDetail::kFull;

  // Capacity hint for the directory's block map and file lists.
  // 0 (the default) derives the hint from the aggregate cache capacity
  // (clients x client_cache_blocks + server_cache_blocks) so steady-state
  // replay runs rehash-free. Results are identical for any value — the
  // capacity-determinism ctest holds that line — only rehash timing moves.
  // Scale-out sweeps (ext_scaling) set this explicitly: the derived default
  // grows with the client count, exactly the O(clients) reservation a
  // bounded-memory replay must avoid.
  std::size_t index_reserve_blocks = 0;

  // Directory shard count (power of two; see src/cache/directory.h). 0 (the
  // default) derives one shard per 16k clients, clamped to [1, 64], so the
  // paper-scale experiments run the historical single-shard layout and the
  // 10^5-10^6-client sweeps bound per-shard map size. Results are byte
  // -identical at any shard count — the shard-determinism ctest holds that
  // line — only hash-map sizing and locality move.
  std::uint32_t directory_shards = 0;

  SimulationConfig& WithClientCacheMiB(std::size_t mib) {
    client_cache_blocks = BytesToBlocks(MiB(mib));
    return *this;
  }
  SimulationConfig& WithServerCacheMiB(std::size_t mib) {
    server_cache_blocks = BytesToBlocks(MiB(mib));
    return *this;
  }
};

}  // namespace coopfs

#endif  // COOPFS_SRC_SIM_CONFIG_H_
