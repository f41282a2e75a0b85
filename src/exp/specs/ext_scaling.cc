// Extension: million-client scale-out of the N-Chance replay.
//
// The paper simulates 42 (Sprite) and 237 (Auspex) clients; its xFS-facing
// discussion (§5-6) asks what happens when cooperative caching spans an
// entire building. This experiment sweeps the client population across five
// decades — 42, 10^3, 10^4, 10^5, 10^6 — holding the *shared* file world
// fixed, and measures replay throughput (events/s) and peak RSS at each
// point. Feasibility rests on three scale-out mechanisms:
//
//   * the streaming trace pipeline (src/trace/event_source.h): events are
//     generated and consumed in 4096-event chunks, never materialized, so
//     replay memory is independent of trace length;
//   * bounded metrics (metrics_detail = bounded): per-client accounting is
//     replaced by O(K) sketches, so result memory is independent of the
//     client count;
//   * the sharded directory (src/cache/directory.h) with an explicit
//     index_reserve_blocks, so directory memory follows the cached-block
//     population, not the client population.
//
// What remains O(clients) is small-constant per-client bookkeeping (a lazy
// cache slot pointer, working-set and activity-sampler state in the
// generator) — tens of bytes per client, ~100 MB at 10^6 clients — which
// docs/performance.md quantifies. Client caches themselves are materialized
// lazily: with a fixed event budget only the clients that actually issue
// accesses ever allocate one.
//
// Each point writes one coopfs.bench/v1 series, scaling_nchance_<N>c, and
// --bench-out collects them into a report CI's smoke leg gates on.
#include <chrono>
#include <memory>
#include <thread>

#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"
#include "src/sim/context.h"
#include "src/obs/bench_report.h"
#include "src/trace/event_source.h"
#include "src/trace/workload.h"

namespace coopfs {

namespace {

// A client-count-independent shared file world. No private_per_client class
// (its file table scales with the population) and no snoop filter (its
// per-delete invalidation scan is O(clients)): everything every client
// touches comes from the same shared classes, so world size — and with it
// directory and server-cache pressure — is fixed across the sweep.
WorkloadConfig ScalingWorkloadConfig(std::uint64_t seed, std::uint32_t num_clients,
                                     std::uint64_t num_events) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_clients = num_clients;
  config.num_events = num_events;
  config.duration = static_cast<Micros>(2) * 24 * 3600 * 1'000'000;
  config.activity_zipf_s = 1.0;
  config.working_set_files = 6;
  config.reopen_probability = 0.94;
  config.run_stop_probability = 0.35;
  config.max_run_blocks = 64;

  FileClassConfig shared_hot;  // System binaries etc.: every client's staple.
  shared_hot.num_files = 4096;
  shared_hot.min_blocks = 1;
  shared_hot.max_blocks = 16;
  shared_hot.select_weight = 0.6;
  shared_hot.write_fraction = 0.05;
  shared_hot.zipf_s = 0.85;

  FileClassConfig shared_cold;  // A long tail that overflows the server cache.
  shared_cold.num_files = 16384;
  shared_cold.min_blocks = 1;
  shared_cold.max_blocks = 32;
  shared_cold.select_weight = 0.1;
  shared_cold.write_fraction = 0.1;
  shared_cold.zipf_s = 0.6;

  FileClassConfig temp;  // Short-lived scratch files, deleted on close.
  temp.num_files = 2048;
  temp.min_blocks = 1;
  temp.max_blocks = 4;
  temp.select_weight = 0.3;
  temp.write_fraction = 0.6;
  temp.zipf_s = 0.5;
  temp.delete_after_use = true;

  config.classes = {shared_hot, shared_cold, temp};
  return config;
}

Status Run(ExperimentContext& ctx) {
  const BenchOptions& options = ctx.options();
  ctx.Printf("=== Extension: client scale-out (streaming replay) ===\n");
  ctx.Printf("workload: %llu events per point, seed %llu; N-Chance, 64-block clients,\n"
             "bounded metrics, streaming generation (no materialized trace)\n\n",
             static_cast<unsigned long long>(options.events),
             static_cast<unsigned long long>(options.seed));

  BenchReport report;
  report.suite = "ext_scaling";
  report.host_threads = std::max<std::uint32_t>(1, std::thread::hardware_concurrency());

  TableFormatter table(
      {"Clients", "Shards", "Events/s", "Wall", "Peak RSS", "Avg read", "Disk reads"});
  SimulationConfig base_config;
  std::vector<SimulationResult> results;
  for (const std::uint32_t clients : {42u, 1'000u, 10'000u, 100'000u, 1'000'000u}) {
    if (clients > options.max_clients) {
      ctx.Printf("(skipping %u clients: --max-clients %u)\n", clients, options.max_clients);
      continue;
    }
    const WorkloadConfig workload =
        ScalingWorkloadConfig(options.seed, clients, options.events);

    SimulationConfig config;
    // Tiny per-client caches: the interesting axis is population, not
    // memory; 64 blocks keeps aggregate client memory bounded while still
    // exercising eviction, recirculation, and forwarding.
    config.client_cache_blocks = 64;
    config.server_cache_blocks = BytesToBlocks(MiB(128));
    config.num_clients = clients;
    config.warmup_events = options.WarmupFor(options.events);
    config.seed = options.seed;
    // The scale-out posture (header comment): bounded metrics, explicit
    // index reservation sized to the shared world rather than derived from
    // the client count, auto-derived directory sharding. No observability
    // sinks — a tracer's event log would reintroduce O(events) memory.
    config.metrics_detail = MetricsDetail::kBounded;
    config.index_reserve_blocks = std::size_t{1} << 18;
    config.directory_shards = 0;

    const std::unique_ptr<EventSource> source = MakeWorkloadEventSource(workload);
    Simulator simulator(config, source.get());

    TryResetPeakRssCounter();
    const auto start = std::chrono::steady_clock::now();
    SimulationResult result;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kNChance, &result));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    BenchSeries series;
    series.name = "scaling_nchance_" + std::to_string(clients) + "c";
    series.items = options.events;
    series.wall_seconds = seconds;
    series.ops_per_sec =
        seconds > 0.0 ? static_cast<double>(options.events) / seconds : 0.0;
    series.peak_rss_bytes = CurrentPeakRssBytes();
    report.series.push_back(series);

    if (clients == 42u) {
      base_config = config;
    } else {
      ctx.RecordConfig(config);
    }
    const auto disk_reads =
        result.level_counts.Get(static_cast<std::size_t>(CacheLevel::kServerDisk));
    table.AddRow({std::to_string(clients),
                  std::to_string(SimContext::ResolveDirectoryShards(config, clients)),
                  FormatDouble(series.ops_per_sec / 1e6, 2) + " M/s",
                  FormatDouble(seconds, 2) + " s", FormatBytes(series.peak_rss_bytes),
                  FormatDouble(result.AverageReadTime(), 0) + " us",
                  std::to_string(disk_reads)});
    results.push_back(result);
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("expected: throughput stays within a small factor of the 42-client replay and\n"
             "peak RSS grows only with the per-client bookkeeping floor (~100 B/client),\n"
             "never with the event count — the streaming pipeline holds replay memory flat\n");

  if (!options.bench_out.empty()) {
    COOPFS_RETURN_IF_ERROR(report.WriteFile(options.bench_out));
    ctx.Printf("wrote bench report: %s (%zu series)\n", options.bench_out.c_str(),
               report.series.size());
    ctx.manifest().exports.push_back(
        {"bench", std::string(kBenchSchema), options.bench_out});
  }
  return ctx.Finish(base_config, results);
}

}  // namespace

ExperimentSpec ExtScalingSpec() {
  ExperimentSpec spec;
  spec.name = "ext_scaling";
  spec.title = "Extension: client scale-out";
  spec.what = "N-Chance replay throughput and memory from 42 to 10^6 clients";
  spec.description = "streaming-replay scale-out sweep, 42 to 1M clients (custom traces)";
  spec.trace = TraceKind::kCustom;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
