// Perf-regression harness: standardized throughput suite for the hot paths.
//
// Measures, with wall-clock timing (paper-metric quality is covered by the
// fig* benches; this harness tracks how fast the *simulator itself* runs):
//
//   * trace_gen            — synthetic Sprite-like workload generation
//   * trace_generate_streaming — the same generation drained through the
//                            chunked EventSource (src/trace/event_source.h)
//                            without materializing a Trace; vs. trace_gen:
//                            the streaming pipeline must not cost throughput
//   * flat_map_lookup      — FlatHashMap point lookups (50% hit rate) on a
//                            reserved table, the dominant operation of every
//                            replay index (items = lookups)
//   * flat_map_churn       — FlatHashMap steady-state insert+erase cycling
//                            at fixed occupancy, the eviction-path pattern
//                            (items = insert/erase pairs)
//   * layer_block_cache_hit, layer_block_cache_miss_evict,
//     layer_lru_map_insert — BlockCache Touch of a resident block,
//                            BlockCache evict-LRU + insert, and LruMap
//                            insert-with-eviction, each on a full 2048-block
//                            (16 MB) cache (items = operations)
//   * layer_directory_add_remove, layer_directory_singlet_query — Directory
//                            add+remove of one copy (items = pairs) and the
//                            singlet test on 42 x 2048 tracked blocks
//   * replay_serial_<p>    — single-threaded trace replay per policy
//   * replay_streaming_nchance — the N-Chance replay pulled straight from
//                            the streaming workload generator (fused
//                            generate+replay, no materialized Trace — the
//                            ext_scaling pipeline); vs. replay_serial_nchance
//                            + trace_gen: streaming the events through the
//                            chunked EventSource must cost no more than
//                            generating and replaying them separately, and
//                            the replay_ prefix keeps the series under the
//                            bench_compare regression gate
//   * replay_len_<p>_2m     — N-Chance and Greedy each replaying a streamed
//                            2M-event Sprite trace, whatever --events says:
//                            trace length as a measured axis. The LENGTH
//                            gate holds N-Chance to at least half of
//                            Greedy's rate there, where any victim search
//                            that grows with the cache would show
//   * trace_gen_auspex_250k, trace_gen_auspex_2m — the Auspex-like snooped
//                            workload (237 clients, one snoop filter each)
//                            drained through the EventSource at 250k and 2M
//                            events, whatever --events says. The LENGTH gate
//                            holds the 2M rate to at least half the 250k
//                            rate: per-event generation cost may at most
//                            double with trace length
//   * replay_traced_nchance — the N-Chance replay with a TraceRecorder
//                            attached (vs. replay_serial_nchance: the cost
//                            of per-event recording; disabled tracing is a
//                            null-pointer check and must stay in the noise)
//   * trace_export_jsonl   — serializing the recorded run to
//                            coopfs.events/v1 JSONL (items = bytes)
//   * replay_sampled_nchance — the N-Chance replay with a SnapshotSampler
//                            attached at the default 1-simulated-hour
//                            interval (vs. replay_serial_nchance: the state
//                            sampling tax; a disabled sampler, like disabled
//                            tracing and profiling, is a null-pointer check
//                            and must keep replay_serial_* in the noise)
//   * timeseries_export_jsonl — serializing the sampled run to
//                            coopfs.timeseries/v1 JSONL (items = bytes)
//   * replay_profiled_nchance — the N-Chance replay with the self-profiler
//                            enabled (vs. replay_serial_nchance: the
//                            per-span steady_clock cost when ON)
//   * replay_bounded_metrics — the N-Chance replay with bounded-memory
//                            telemetry (metrics_detail = bounded: count-min
//                            sketches, Space-Saving top-K, reservoir) on the
//                            read path (vs. replay_serial_nchance: the
//                            streaming-telemetry tax; the bench_compare obs
//                            gate bounds it)
//   * sketch_update        — StreamStatsCollector::OnRead in isolation over
//                            an xorshift key stream (items = updates)
//   * parallel_sweep_<t>   — RunSimulationsParallel over 4 replicas of the
//                            Figure 4 job list (24 jobs) at 1, 2, 4, and 8
//                            worker threads (plus --threads when wider).
//                            The document's host_threads field records the
//                            machine's hardware concurrency so the
//                            bench_compare scaling gate can judge speedups
//                            against what was physically attainable.
//
// and writes the series to BENCH_coopfs.json ("coopfs.bench/v1", see
// docs/metrics_schema.md) so every commit leaves a comparable perf baseline.
// Where the platform allows it (Linux), the kernel's peak-RSS watermark is
// reset before each series so peak_rss_bytes attributes memory to the series
// that touched it rather than reporting the monotonic process maximum.
//
// Usage: perf_harness [--events N] [--seed S] [--out PATH] [--threads T]
//                     [--dry-run]
//
//   --events N    trace length (default 700,000, the paper's Sprite length)
//   --threads T   thread count for the widest parallel series (default:
//                 hardware concurrency)
//   --out PATH    output document (default BENCH_coopfs.json)
//   --dry-run     skip all measurement; emit a valid empty-suite document
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/cache/directory.h"
#include "src/cache/lru_map.h"
#include "src/common/flags.h"
#include "src/common/flat_hash_map.h"
#include "src/common/format.h"
#include "src/common/profiler.h"
#include "src/core/policy_factory.h"
#include "src/core/sweep.h"
#include "src/exp/options.h"
#include "src/exp/trace_pool.h"
#include "src/obs/bench_report.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/stream_stats.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/trace_sink.h"
#include "src/trace/event_source.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

// xorshift64* key stream for the microbench series (seeded from --seed).
struct KeyStream {
  std::uint64_t state;
  std::uint64_t operator()() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Opens a measurement window: rewinds the kernel's peak-RSS watermark (so
// the series' peak_rss_bytes covers only memory this series touches; no-op
// where unsupported) and starts the clock.
std::chrono::steady_clock::time_point StartSeries() {
  TryResetPeakRssCounter();
  return std::chrono::steady_clock::now();
}

// Paper §4.1 defaults, as in ExperimentContext::PaperConfig but without the
// observability plumbing (this harness attaches its own sinks explicitly).
SimulationConfig HarnessConfig(const BenchOptions& options, std::uint64_t trace_events) {
  SimulationConfig config;
  config.WithClientCacheMiB(16).WithServerCacheMiB(128);
  config.warmup_events = options.WarmupFor(trace_events);
  config.seed = options.seed;
  return config;
}

// Runs one policy, aborting the process with a message on failure: a harness
// replay that cannot run has no baseline to report.
SimulationResult MustRun(Simulator& simulator, PolicyKind kind) {
  const auto policy = MakePolicy(kind, PolicyParams{});
  Result<SimulationResult> result = simulator.Run(*policy);
  if (!result.ok()) {
    std::fprintf(stderr, "perf_harness: %s failed: %s\n", policy->Name().c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(result);
}

BenchSeries MakeSeries(const std::string& name, std::uint64_t items, double seconds) {
  BenchSeries series;
  series.name = name;
  series.items = items;
  series.wall_seconds = seconds;
  series.ops_per_sec = seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  series.peak_rss_bytes = CurrentPeakRssBytes();
  return series;
}

// Pulls `source` dry through a 4096-event chunk buffer without materializing
// a Trace; returns the events drained. The chunks' last timestamps feed a
// checksum that is printed only if it hits one value, keeping the drain
// observable.
std::uint64_t Drain(EventSource& source) {
  std::vector<TraceEvent> chunk(4096);
  std::uint64_t drained = 0;
  std::uint64_t checksum = 0;
  for (std::size_t n = source.NextChunk(std::span<TraceEvent>(chunk)); n > 0;
       n = source.NextChunk(std::span<TraceEvent>(chunk))) {
    drained += n;
    checksum ^= static_cast<std::uint64_t>(chunk[n - 1].timestamp);
  }
  if (checksum == ~std::uint64_t{0}) {
    std::printf("drain checksum %llu\n", static_cast<unsigned long long>(checksum));
  }
  return drained;
}

// A best-of-N series with its sample spread recorded: ops_per_sec is the
// fastest pass (least scheduler disturbance), while min/median/max/cv give
// run_diff's noise-aware significance test the per-series spread it needs to
// tell wobble from regression.
BenchSeries MakeSpreadSeries(const std::string& name, std::uint64_t items,
                             const std::vector<double>& pass_seconds) {
  std::vector<double> ops;
  ops.reserve(pass_seconds.size());
  for (double seconds : pass_seconds) {
    ops.push_back(seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0);
  }
  std::sort(ops.begin(), ops.end());
  const double best_seconds =
      *std::min_element(pass_seconds.begin(), pass_seconds.end());
  BenchSeries series = MakeSeries(name, items, best_seconds);
  series.iterations = static_cast<std::uint32_t>(ops.size());
  if (ops.size() > 1) {
    series.ops_per_sec_min = ops.front();
    series.ops_per_sec_max = ops.back();
    series.ops_per_sec_median = ops.size() % 2 == 1
                                    ? ops[ops.size() / 2]
                                    : (ops[ops.size() / 2 - 1] + ops[ops.size() / 2]) / 2.0;
    double mean = 0.0;
    for (double value : ops) {
      mean += value;
    }
    mean /= static_cast<double>(ops.size());
    double variance = 0.0;
    for (double value : ops) {
      variance += (value - mean) * (value - mean);
    }
    variance /= static_cast<double>(ops.size());
    series.cv = mean > 0.0 ? std::sqrt(variance) / mean : 0.0;
  }
  return series;
}

// Sidecar paths next to the bench document: "<base>.profile.json" and
// "<base>.timeseries.jsonl" (base = out_path minus a trailing ".json").
// bench_compare discovers them by the same convention to attribute gate
// failures to spans and windows.
std::string SidecarBase(const std::string& out_path) {
  constexpr std::string_view kJsonSuffix = ".json";
  if (out_path.size() > kJsonSuffix.size() &&
      out_path.compare(out_path.size() - kJsonSuffix.size(), kJsonSuffix.size(),
                       kJsonSuffix) == 0) {
    return out_path.substr(0, out_path.size() - kJsonSuffix.size());
  }
  return out_path;
}

// The serial-replay policies: a spread from cheapest (no cooperation) to the
// most bookkeeping-heavy paths, so per-policy regressions are attributable.
struct ReplayCase {
  const char* series_name;
  PolicyKind kind;
};
constexpr ReplayCase kReplayCases[] = {
    {"replay_serial_baseline", PolicyKind::kBaseline},
    {"replay_serial_greedy", PolicyKind::kGreedy},
    {"replay_serial_central", PolicyKind::kCentralCoord},
    {"replay_serial_nchance", PolicyKind::kNChance},
};

int Run(int argc, char** argv) {
  Result<BenchOptions> parsed = BenchOptions::FromArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perf_harness: %s\n", parsed.status().message().c_str());
    return 2;
  }
  const BenchOptions& options = *parsed;
  std::string out_path = "BENCH_coopfs.json";
  std::size_t max_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (Status status = ParseFlagNumber(argv[i], argv[i + 1], &max_threads); !status.ok()) {
        std::fprintf(stderr, "perf_harness: %s\n", status.message().c_str());
        return 2;
      }
      max_threads = std::max<std::size_t>(1, max_threads);
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    }
  }

  BenchReport report;
  report.host_threads =
      std::max<std::uint32_t>(1, std::thread::hardware_concurrency());
  if (dry_run) {
    if (Status status = report.WriteFile(out_path); !status.ok()) {
      std::fprintf(stderr, "perf_harness: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("perf_harness: dry run, wrote empty suite to %s\n", out_path.c_str());
    return 0;
  }

  std::printf("=== perf_harness: throughput suite (%llu events, seed %llu) ===\n",
              static_cast<unsigned long long>(options.events),
              static_cast<unsigned long long>(options.seed));

  // 1. Trace generation throughput (fresh, unmemoized generation).
  {
    WorkloadConfig config = SpriteWorkloadConfig(options.seed);
    config.num_events = options.events;
    const auto start = StartSeries();
    const Trace generated = GenerateWorkload(config);
    report.series.push_back(MakeSeries("trace_gen", generated.size(), SecondsSince(start)));
  }

  // 1a. The same generation drained through the chunked EventSource without
  //     materializing a Trace — the producer half of the streaming pipeline.
  //     vs. trace_gen: the chunk plumbing (one virtual call + staging copy
  //     per 4096 events) must stay in the noise.
  {
    WorkloadConfig config = SpriteWorkloadConfig(options.seed);
    config.num_events = options.events;
    const std::unique_ptr<EventSource> source = MakeWorkloadEventSource(config);
    const auto start = StartSeries();
    source->Reset();
    const std::uint64_t drained = Drain(*source);
    report.series.push_back(
        MakeSeries("trace_generate_streaming", drained, SecondsSince(start)));
  }

  // 1b. Flat-map microbenches: the raw data-structure cost under the replay
  //     indexes' access patterns, so a hash-map regression is attributable
  //     separately from policy-logic changes. Both use an xorshift key
  //     stream; a checksum keeps the loops observable.
  {
    constexpr std::uint64_t kTableEntries = 1u << 17;  // Bigger than L2.
    KeyStream next{options.seed | 1};

    // Lookup: reserved table of even keys; probe evens and odds alike for a
    // 50% hit rate (replay lookups are a hit/miss mix too).
    FlatHashMap<std::uint64_t, std::uint64_t> map;
    map.Reserve(kTableEntries);
    for (std::uint64_t k = 0; k < kTableEntries; ++k) {
      map[k * 2] = k;
    }
    const std::uint64_t lookups = options.events * 8;
    std::uint64_t checksum = 0;
    auto start = StartSeries();
    for (std::uint64_t i = 0; i < lookups; ++i) {
      const std::uint64_t* value = map.Find(next() % (2 * kTableEntries));
      checksum += value != nullptr ? *value : 1;
    }
    report.series.push_back(MakeSeries("flat_map_lookup", lookups, SecondsSince(start)));

    // Churn: hold occupancy at kTableEntries while cycling one insert + one
    // erase per step — the backward-shift erase path the LRU indexes hit on
    // every eviction.
    FlatHashMap<std::uint64_t, std::uint64_t> churn;
    churn.Reserve(kTableEntries);
    std::uint64_t head = 0;
    for (; head < kTableEntries; ++head) {
      churn[head] = head;
    }
    const std::uint64_t cycles = options.events * 4;
    start = StartSeries();
    for (std::uint64_t i = 0; i < cycles; ++i) {
      churn[head] = head;
      checksum += churn.Erase(head - kTableEntries) ? 0 : 1;
      ++head;
    }
    report.series.push_back(MakeSeries("flat_map_churn", cycles, SecondsSince(start)));
    if (checksum == ~std::uint64_t{0}) {  // Keep the loops from folding away.
      std::printf("flat_map checksum %llu\n", static_cast<unsigned long long>(checksum));
    }
  }

  // 1c. Layer microbenches: the replay's cache structures one operation at
  //     a time, at the paper's 2048-block (16 MB) client cache and, for the
  //     directory, the blocks 42 such caches hold. Ungated; they split a
  //     replay_* move into the layer that caused it.
  {
    constexpr std::size_t kCacheBlocks = BytesToBlocks(MiB(16));
    constexpr std::uint32_t kClients = 42;  // The paper's Sprite client count.
    constexpr std::uint64_t kDirectoryBlocks = kClients * kCacheBlocks;
    KeyStream next{options.seed | 1};
    std::uint64_t checksum = 0;

    // Hit: Touch a random resident block (index probe + LRU relink).
    BlockCache hit_cache(kCacheBlocks);
    for (std::size_t i = 0; i < kCacheBlocks; ++i) {
      hit_cache.Insert(BlockId{static_cast<FileId>(i), 0});
    }
    const std::uint64_t touches = options.events * 4;
    auto start = StartSeries();
    for (std::uint64_t i = 0; i < touches; ++i) {
      checksum += hit_cache.Touch(BlockId{static_cast<FileId>(next() % kCacheBlocks), 0})
                      ->block.file;
    }
    report.series.push_back(
        MakeSeries("layer_block_cache_hit", touches, SecondsSince(start)));

    // Miss: evict the LRU block of a full cache and insert a new one.
    BlockCache miss_cache(kCacheBlocks);
    FileId fresh = 0;
    for (; fresh < kCacheBlocks; ++fresh) {
      miss_cache.Insert(BlockId{fresh, 0});
    }
    const std::uint64_t misses = options.events * 2;
    start = StartSeries();
    for (std::uint64_t i = 0; i < misses; ++i) {
      checksum += miss_cache.EvictLru()->block.file;
      miss_cache.Insert(BlockId{fresh++, 0});
    }
    report.series.push_back(
        MakeSeries("layer_block_cache_miss_evict", misses, SecondsSince(start)));

    // LruMap: insert a fresh key into a full map, evicting its LRU entry.
    LruMap<std::uint64_t, ClientId> lru(kCacheBlocks);
    const std::uint64_t inserts = options.events * 4;
    start = StartSeries();
    for (std::uint64_t key = 0; key < inserts; ++key) {
      if (const auto evicted = lru.Insert(key, 0); evicted.has_value()) {
        checksum += evicted->first;
      }
    }
    report.series.push_back(
        MakeSeries("layer_lru_map_insert", inserts, SecondsSince(start)));

    // Directory: register and drop one copy of a random block (items = pairs).
    Directory churn_directory;
    const std::uint64_t pairs = options.events * 2;
    start = StartSeries();
    for (std::uint64_t i = 0; i < pairs; ++i) {
      const std::uint64_t key = next();
      const BlockId block{static_cast<FileId>(key % kDirectoryBlocks), 0};
      const auto client = static_cast<ClientId>((key >> 32) % kClients);
      churn_directory.AddHolder(block, client);
      churn_directory.RemoveHolder(block, client);
    }
    report.series.push_back(
        MakeSeries("layer_directory_add_remove", pairs, SecondsSince(start)));
    checksum += churn_directory.NumTrackedBlocks();

    // Singlet query (N-Chance's eviction test) against a populated
    // directory in which every third block has a second holder.
    Directory query_directory;
    for (std::uint64_t i = 0; i < kDirectoryBlocks; ++i) {
      const BlockId block{static_cast<FileId>(i), 0};
      query_directory.AddHolder(block, static_cast<ClientId>(i % kClients));
      if (i % 3 == 0) {
        query_directory.AddHolder(block, static_cast<ClientId>((i + 1) % kClients));
      }
    }
    const std::uint64_t queries = options.events * 4;
    start = StartSeries();
    for (std::uint64_t i = 0; i < queries; ++i) {
      const std::uint64_t id = next() % kDirectoryBlocks;
      checksum += query_directory.IsSingletHeldBy(BlockId{static_cast<FileId>(id), 0},
                                                  static_cast<ClientId>(id % kClients));
    }
    report.series.push_back(
        MakeSeries("layer_directory_singlet_query", queries, SecondsSince(start)));
    if (checksum == ~std::uint64_t{0}) {  // Keep the loops from folding away.
      std::printf("layer checksum %llu\n", static_cast<unsigned long long>(checksum));
    }
  }

  // The replay series share one memoized trace snapshot; acquiring it here
  // (before timing) pays the single refcount bump up front, so the parallel
  // sweeps below see only an immutable `const Trace&`.
  const std::shared_ptr<const Trace> trace_snapshot = SpriteTraceSnapshot(options);
  const Trace& trace = *trace_snapshot;
  const SimulationConfig config = HarnessConfig(options, trace.size());

  // 2. Serial replay throughput per policy (events replayed per second).
  //    These feed the replay-regression and obs-overhead gates, so each
  //    takes the best of a few passes: the minimum wall time is the run
  //    least disturbed by scheduler noise, which keeps the gated ratios
  //    from flapping on loaded machines.
  constexpr int kGatedSeriesPasses = 3;
  for (const ReplayCase& replay : kReplayCases) {
    std::vector<double> pass_seconds;
    for (int pass = 0; pass < kGatedSeriesPasses; ++pass) {
      Simulator simulator(config, &trace);
      const auto start = StartSeries();
      const SimulationResult result = MustRun(simulator, replay.kind);
      pass_seconds.push_back(SecondsSince(start));
      (void)result;
    }
    report.series.push_back(
        MakeSpreadSeries(replay.series_name, trace.size(), pass_seconds));
  }

  // 2b. Streaming replay: the N-Chance replay fed straight from the workload
  //     generator — fused generate+replay with no materialized Trace, the
  //     path ext_scaling's million-client points run. Gated (replay_ prefix):
  //     its throughput folds generation and replay together, so compare
  //     against its own baseline, not against replay_serial_nchance.
  {
    WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
    workload.num_events = options.events;
    std::vector<double> pass_seconds;
    for (int pass = 0; pass < kGatedSeriesPasses; ++pass) {
      const std::unique_ptr<EventSource> source = MakeWorkloadEventSource(workload);
      Simulator simulator(config, source.get());
      const auto start = StartSeries();
      const SimulationResult result = MustRun(simulator, PolicyKind::kNChance);
      pass_seconds.push_back(SecondsSince(start));
      (void)result;
    }
    report.series.push_back(
        MakeSpreadSeries("replay_streaming_nchance", trace.size(), pass_seconds));
  }

  // 2c. Trace length: the same streamed Sprite workload at 2M events for
  //     N-Chance and Greedy. Caches fill with flag-marked singlets and
  //     recirculating copies only well past the paper's 700k events, so
  //     this is where a victim search that scans the cache shows up.
  {
    constexpr std::uint64_t kLongEvents = 2'000'000;
    WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
    workload.num_events = kLongEvents;
    const SimulationConfig long_config = HarnessConfig(options, kLongEvents);
    constexpr ReplayCase kLengthCases[] = {
        {"replay_len_nchance_2m", PolicyKind::kNChance},
        {"replay_len_greedy_2m", PolicyKind::kGreedy},
    };
    for (const ReplayCase& replay : kLengthCases) {
      std::vector<double> pass_seconds;
      std::uint64_t events = 0;
      for (int pass = 0; pass < kGatedSeriesPasses; ++pass) {
        const std::unique_ptr<EventSource> source = MakeWorkloadEventSource(workload);
        Simulator simulator(long_config, source.get());
        const auto start = StartSeries();
        const SimulationResult result = MustRun(simulator, replay.kind);
        pass_seconds.push_back(SecondsSince(start));
        events = result.counters.events_replayed;
      }
      report.series.push_back(MakeSpreadSeries(replay.series_name, events, pass_seconds));
    }
  }

  // 2d. Auspex generation at two fixed lengths, whatever --events says: 237
  //     clients, each read filtered through the client's own snoop filter.
  //     The LENGTH gate holds the per-event cost at 2M events to at most
  //     twice the cost at 250k, so generator work that grows with the trace
  //     shows, such as a temp-file delete that scans every client's filter.
  //     The clock starts after the world is built: the ratio compares
  //     per-event work only.
  {
    constexpr struct {
      const char* series_name;
      std::uint64_t events;
    } kGenCases[] = {
        {"trace_gen_auspex_250k", 250'000},
        {"trace_gen_auspex_2m", 2'000'000},
    };
    for (const auto& gen : kGenCases) {
      WorkloadConfig workload = AuspexWorkloadConfig(options.seed);
      workload.num_events = gen.events;
      std::vector<double> pass_seconds;
      std::uint64_t events = 0;
      for (int pass = 0; pass < kGatedSeriesPasses; ++pass) {
        const std::unique_ptr<EventSource> source = MakeWorkloadEventSource(workload);
        const auto start = StartSeries();
        events = Drain(*source);
        pass_seconds.push_back(SecondsSince(start));
      }
      report.series.push_back(MakeSpreadSeries(gen.series_name, events, pass_seconds));
    }
  }

  // 3. Event-tracing overhead: the most bookkeeping-heavy replay again with
  //    a recorder attached, then the JSONL serialization of what it
  //    recorded. replay_traced_nchance vs. replay_serial_nchance is the
  //    recording tax the docs quote.
  {
    TraceRecorder recorder;
    SimulationConfig traced_config = config;
    traced_config.trace_recorder = &recorder;
    Simulator simulator(traced_config, &trace);
    const auto start = StartSeries();
    const SimulationResult result = MustRun(simulator, PolicyKind::kNChance);
    BenchSeries series = MakeSeries("replay_traced_nchance", trace.size(), SecondsSince(start));
    (void)result;
    report.series.push_back(series);

    TraceExportMetadata metadata;
    metadata.seed = options.seed;
    metadata.trace_events = options.events;
    metadata.workload = "sprite";
    const auto export_start = StartSeries();
    const std::string jsonl = EventsToJsonl(recorder.runs(), metadata);
    report.series.push_back(
        MakeSeries("trace_export_jsonl", jsonl.size(), SecondsSince(export_start)));
  }

  // 3b. State-sampling overhead: the same replay with a SnapshotSampler at
  //     the default interval, then the JSONL serialization of the samples.
  {
    SnapshotSampler sampler;
    SimulationConfig sampled_config = config;
    sampled_config.snapshot_sampler = &sampler;
    sampled_config.sample_interval = options.sample_interval;
    Simulator simulator(sampled_config, &trace);
    const auto start = StartSeries();
    const SimulationResult result = MustRun(simulator, PolicyKind::kNChance);
    BenchSeries series = MakeSeries("replay_sampled_nchance", trace.size(), SecondsSince(start));
    (void)result;
    report.series.push_back(series);

    TraceExportMetadata metadata;
    metadata.seed = options.seed;
    metadata.trace_events = options.events;
    metadata.workload = "sprite";
    const auto export_start = StartSeries();
    const std::string jsonl = TimeseriesToJsonl(sampler.runs(), metadata);
    report.series.push_back(
        MakeSeries("timeseries_export_jsonl", jsonl.size(), SecondsSince(export_start)));

    // Ship the sampled windows as a sidecar next to the bench document so
    // bench_compare / coopfs_inspect diff can attribute a perf regression to
    // the simulated-time windows where behavior diverged.
    const std::string timeseries_path = SidecarBase(out_path) + ".timeseries.jsonl";
    if (Status status = WriteTimeseriesJsonl(sampler.runs(), metadata, timeseries_path);
        !status.ok()) {
      std::fprintf(stderr, "perf_harness: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // 3c. Self-profiling overhead: the same replay with the profiler ON. The
  //     profiler-OFF cost is already measured — every replay_serial_* series
  //     runs with the (disabled) spans compiled in.
  {
    const bool was_enabled = Profiler::enabled();
    Profiler::Reset();
    Profiler::Enable(true);
    Simulator simulator(config, &trace);
    const auto start = StartSeries();
    const SimulationResult result = MustRun(simulator, PolicyKind::kNChance);
    BenchSeries series =
        MakeSeries("replay_profiled_nchance", trace.size(), SecondsSince(start));
    (void)result;
    report.series.push_back(series);

    // Ship the profiler's span tree as the second sidecar: self-time shares
    // are what run_diff compares when a gate failure needs a suspect span.
    const std::string profile_path = SidecarBase(out_path) + ".profile.json";
    if (Status status = Profiler::WriteFile(profile_path); !status.ok()) {
      std::fprintf(stderr, "perf_harness: %s\n", status.ToString().c_str());
      return 1;
    }
    Profiler::Enable(was_enabled);
    if (!was_enabled) {
      Profiler::Reset();
    }
  }

  // 3d. Bounded-telemetry overhead: the same replay with metrics_detail =
  //     bounded, so every counted read feeds the sketches/top-K/reservoir.
  //     replay_bounded_metrics vs. replay_serial_nchance is the tax the obs
  //     gate in tools/bench_compare bounds.
  {
    SimulationConfig bounded_config = config;
    bounded_config.metrics_detail = MetricsDetail::kBounded;
    std::vector<double> pass_seconds;
    for (int pass = 0; pass < kGatedSeriesPasses; ++pass) {
      Simulator simulator(bounded_config, &trace);
      const auto start = StartSeries();
      const SimulationResult result = MustRun(simulator, PolicyKind::kNChance);
      pass_seconds.push_back(SecondsSince(start));
      (void)result;
    }
    report.series.push_back(
        MakeSpreadSeries("replay_bounded_metrics", trace.size(), pass_seconds));
  }

  // 3e. Sketch-update microbench: StreamStatsCollector::OnRead in isolation
  //     (two count-min updates, two Space-Saving offers, one reservoir
  //     sample per call) over an xorshift stream, so a sketch regression is
  //     attributable separately from replay changes. The summary read keeps
  //     the loop observable.
  {
    StreamStatsOptions stream_options;
    stream_options.seed = options.seed;
    StreamStatsCollector collector(stream_options);
    KeyStream next{options.seed | 1};
    const std::uint64_t updates = options.events * 4;
    const auto start = StartSeries();
    for (std::uint64_t i = 0; i < updates; ++i) {
      const std::uint64_t key = next();
      const auto client = static_cast<ClientId>(key % 1024);
      const BlockId block{static_cast<FileId>(key >> 32 & 0xffff),
                          static_cast<std::uint32_t>(key & 0xffff)};
      const auto level = static_cast<CacheLevel>(key >> 16 & 0x3);
      collector.OnRead(client, block, level, static_cast<Micros>(key & 0xfff));
    }
    report.series.push_back(MakeSeries("sketch_update", updates, SecondsSince(start)));
    const StreamSummary summary = collector.Summarize(1024);
    if (summary.counted_reads != updates) {
      std::fprintf(stderr, "perf_harness: sketch_update dropped reads\n");
      return 1;
    }
  }

  // 4. Parallel sweep scaling: 4 replicas of the Figure 4 job list (24
  //    jobs — enough work per width that every worker stays busy past the
  //    ramp-up) at 1, 2, 4, and 8 worker threads, plus --threads when it is
  //    wider; items = total events replayed. The scaling gate in
  //    tools/bench_compare judges these series against host_threads.
  std::vector<SimulationJob> jobs;
  constexpr std::size_t kSweepReplicas = 4;
  for (std::size_t replica = 0; replica < kSweepReplicas; ++replica) {
    for (PolicyKind kind : Figure4PolicyKinds()) {
      jobs.push_back(SimulationJob{config, kind, PolicyParams{}});
    }
  }
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (max_threads > thread_counts.back()) {
    thread_counts.push_back(max_threads);
  }
  for (std::size_t threads : thread_counts) {
    const auto start = StartSeries();
    const auto results = RunSimulationsParallel(trace, jobs, threads);
    const double seconds = SecondsSince(start);
    for (const auto& result : results) {
      if (!result.ok()) {
        std::fprintf(stderr, "perf_harness: parallel job failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    report.series.push_back(MakeSeries("parallel_sweep_" + std::to_string(threads) + "t",
                                       jobs.size() * trace.size(), seconds));
  }

  if (Status status = report.WriteFile(out_path); !status.ok()) {
    std::fprintf(stderr, "perf_harness: %s\n", status.ToString().c_str());
    return 1;
  }

  TableFormatter table({"Series", "Items", "Wall", "Throughput", "Peak RSS"});
  for (const BenchSeries& series : report.series) {
    table.AddRow({series.name, std::to_string(series.items),
                  FormatDouble(series.wall_seconds, 2) + " s",
                  FormatDouble(series.ops_per_sec / 1e6, 2) + " M/s",
                  FormatBytes(series.peak_rss_bytes)});
  }
  std::printf("%s\nwrote %s (%zu series) + %s.{profile.json,timeseries.jsonl}\n",
              table.ToString().c_str(), out_path.c_str(), report.series.size(),
              SidecarBase(out_path).c_str());
  return 0;
}

}  // namespace
}  // namespace coopfs

int main(int argc, char** argv) { return coopfs::Run(argc, argv); }
