// Functional tests for the serving harness (src/serve/serve_harness.h):
// op-count conservation, per-level accounting, merged aggregates,
// bench-document round-trip, both key mixes, agreement with one Simulator
// replay per shard, and option validation. The randomized multi-thread
// invariant storms live in serve_stress_test.cc.
#include "src/serve/serve_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/engine/cache_engine.h"
#include "src/obs/bench_gate.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

ServeOptions SmallOptions() {
  ServeOptions options;
  options.client_threads = 2;
  options.num_clients = 8;
  options.ops = 4'000;
  options.warmup_ops = 400;
  options.num_files = 200;
  options.config.client_cache_blocks = 64;
  options.config.server_cache_blocks = 256;
  return options;
}

// Expects `all` to summarize the union of the samples behind `parts`:
// count, extremes and count-weighted mean, the last three to a relative 1e-9.
void ExpectUnionOf(const BenchLatency& all, const std::vector<BenchLatency>& parts) {
  std::uint64_t count = 0;
  double weighted_sum = 0.0;
  double min_us = std::numeric_limits<double>::infinity();
  double max_us = -std::numeric_limits<double>::infinity();
  for (const BenchLatency& part : parts) {
    if (part.count == 0) {
      continue;
    }
    count += part.count;
    weighted_sum += part.mean_us * static_cast<double>(part.count);
    min_us = std::min(min_us, part.min_us);
    max_us = std::max(max_us, part.max_us);
  }
  ASSERT_GT(count, 0u);
  const double mean_us = weighted_sum / static_cast<double>(count);
  EXPECT_EQ(all.count, count);
  EXPECT_NEAR(all.min_us, min_us, 1e-9 * std::abs(min_us));
  EXPECT_NEAR(all.max_us, max_us, 1e-9 * std::abs(max_us));
  EXPECT_NEAR(all.mean_us, mean_us, 1e-9 * std::abs(mean_us));
}

// Expects the quantiles of `stats` in order between its extremes.
void ExpectOrderedQuantiles(const BenchLatency& stats) {
  EXPECT_LE(stats.min_us, stats.p50_us);
  EXPECT_LE(stats.p50_us, stats.p90_us);
  EXPECT_LE(stats.p90_us, stats.p95_us);
  EXPECT_LE(stats.p95_us, stats.p99_us);
  EXPECT_LE(stats.p99_us, stats.p999_us);
  EXPECT_LE(stats.p999_us, stats.max_us);
}

// 2 threads on 2 derived shards, and 3 threads on 4: there one thread
// checks two shards, and the threads run their last requests at different
// times.
TEST(ServeHarnessTest, CountsConserveAndLevelsSum) {
  for (const std::uint32_t threads : {2u, 3u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ServeOptions options = SmallOptions();
    options.client_threads = threads;
    const auto call_start = std::chrono::steady_clock::now();
    Result<ServeReport> report = RunServe(options);
    const double call_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - call_start).count();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EXPECT_EQ(report->ops, options.ops);
    EXPECT_EQ(report->get_ops + report->put_ops, report->ops);
    std::uint64_t level_sum = 0;
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      level_sum += report->get_level_counts[level];
      EXPECT_EQ(report->get_level_counts[level], report->get_levels[level].count);
    }
    EXPECT_EQ(level_sum, report->get_ops);
    EXPECT_TRUE(report->consistent);
    EXPECT_GT(report->ops_per_sec, 0.0);
    EXPECT_EQ(report->client_threads, threads);
    EXPECT_EQ(report->shards, threads == 2 ? 2u : 4u);  // Derived: pow2 >= threads.
    EXPECT_GT(report->wall_seconds, 0.0);
    EXPECT_LE(report->wall_seconds, call_seconds);

    // The aggregates are unions: all gets of the four levels, total of gets
    // and puts.
    ExpectUnionOf(report->gets, std::vector<BenchLatency>(report->get_levels.begin(),
                                                          report->get_levels.end()));
    ExpectUnionOf(report->total, {report->gets, report->puts});
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      SCOPED_TRACE(CacheLevelName(static_cast<CacheLevel>(level)));
      ExpectOrderedQuantiles(report->get_levels[level]);
    }
    ExpectOrderedQuantiles(report->gets);
    ExpectOrderedQuantiles(report->puts);
    ExpectOrderedQuantiles(report->total);
  }
}

TEST(ServeHarnessTest, ModeledLatenciesDominateEachLevel) {
  ServeOptions options = SmallOptions();
  options.ops = 8'000;
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Each level's median must sit at or just above the modeled constant for
  // that level (wall-clock engine overhead only ever adds).
  const SimulationConfig& config = options.config;
  const auto level_stats = [&](CacheLevel level) {
    return report->get_levels[static_cast<std::size_t>(level)];
  };
  if (level_stats(CacheLevel::kLocalMemory).count > 0) {
    EXPECT_GE(level_stats(CacheLevel::kLocalMemory).p50_us,
              static_cast<double>(config.network.memory_copy));
    EXPECT_LT(level_stats(CacheLevel::kLocalMemory).p50_us,
              static_cast<double>(config.disk.access_time));
  }
  if (level_stats(CacheLevel::kServerDisk).count > 0) {
    EXPECT_GE(level_stats(CacheLevel::kServerDisk).p50_us,
              static_cast<double>(config.disk.access_time));
  }
  // Puts are charged the write-through constant.
  if (report->puts.count > 0) {
    EXPECT_GE(report->puts.p50_us, static_cast<double>(config.network.memory_copy +
                                                       2 * config.network.per_hop +
                                                       config.network.block_transfer));
  }
}

TEST(ServeHarnessTest, BenchDocumentRoundTripsAndPassesServeGate) {
  const ServeOptions options = SmallOptions();
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const BenchReport bench = report->ToBenchReport();
  EXPECT_EQ(bench.suite, "coopfs_serve");
  const std::string json = bench.ToJson();
  ASSERT_TRUE(ValidateBenchDocument(json).ok());

  Result<BenchReport> parsed = ParseBenchDocument(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->series.size(), bench.series.size());
  const BenchSeries* total = nullptr;
  for (const BenchSeries& series : parsed->series) {
    if (series.name == "serve_throughput") {
      total = &series;
    }
  }
  ASSERT_NE(total, nullptr);
  ASSERT_TRUE(total->latency.has_value());
  EXPECT_EQ(total->latency->count, report->ops);
  EXPECT_DOUBLE_EQ(total->latency->p999_us, report->total.p999_us);

  const GateResult gates = EvaluateBenchGates(*parsed);
  EXPECT_TRUE(gates.failures.empty()) << gates.failures.front();
  EXPECT_NE(std::find(gates.passed.begin(), gates.passed.end(), "SERVE"), gates.passed.end());
}

TEST(ServeHarnessTest, TraceMixRunsAndConserves) {
  // 5k trace events is below the 10k-event pool floor: the cap wins, and the
  // storm cycles the smaller pool.
  for (const std::uint64_t trace_events : {20'000u, 5'000u}) {
    SCOPED_TRACE("trace_events=" + std::to_string(trace_events));
    ServeOptions options = SmallOptions();
    options.mix = ServeKeyMix::kTrace;
    options.trace_events = trace_events;
    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->mix, "trace");
    EXPECT_EQ(report->ops, options.ops);
    EXPECT_TRUE(report->consistent);
  }
}

// Each shard's requests run on one thread at a time, in seq order, so a
// storm on S shards is S replays: Simulator::Run over each shard's share of
// the seq-ordered requests, with that shard's capacities and seed, satisfies
// every counted get at the same cache level, at any thread count.
TEST(ServeHarnessTest, ShardedStormIsOneReplayPerShard) {
  ServeOptions options = SmallOptions();
  options.ops = 12'000;
  options.warmup_ops = 1'200;
  options.mix = ServeKeyMix::kTrace;
  options.trace_events = 20'000;

  // The storm's requests, rebuilt as RunServe's trace pool is: the
  // read/write events of the Sprite-like workload. Request seq is pool event
  // seq % pool size at seq x 50 us, whichever thread draws it.
  WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
  workload.num_clients = options.num_clients;
  workload.num_events = std::min<std::uint64_t>(
      std::max<std::uint64_t>(options.ops + options.warmup_ops, 10'000), options.trace_events);
  Trace pool;
  for (const TraceEvent& event : GenerateWorkload(workload)) {
    if (event.type == EventType::kRead || event.type == EventType::kWrite) {
      pool.push_back(event);
    }
  }
  ASSERT_FALSE(pool.empty());

  for (const PolicyKind kind : {PolicyKind::kNChance, PolicyKind::kGreedy}) {
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(PolicyKindName(kind)) + ", " + std::to_string(shards) +
                   " shards");
      // Split the requests by shard, routed as the storm's engine routes.
      SimulationConfig config = options.config;
      config.num_clients = options.num_clients;
      const CacheEngine router(
          config, options.num_clients, [kind] { return MakePolicy(kind); }, shards);
      std::vector<Trace> shard_events(shards);
      std::vector<std::uint64_t> shard_warmup(shards, 0);
      for (std::uint64_t seq = 0; seq < options.warmup_ops + options.ops; ++seq) {
        TraceEvent event = pool[seq % pool.size()];
        event.timestamp = static_cast<Micros>(seq) * 50;
        const std::uint32_t shard = router.ShardForFile(event.block.file);
        shard_events[shard].push_back(event);
        shard_warmup[shard] += seq < options.warmup_ops ? 1 : 0;
      }

      // One replay per shard, configured as the engine configures it.
      std::uint64_t expected_gets = 0;
      std::array<std::uint64_t, kNumCacheLevels> expected_levels{};
      for (std::uint32_t shard = 0; shard < shards; ++shard) {
        if (shard_events[shard].empty()) {
          continue;
        }
        SimulationConfig shard_config = config;
        shard_config.client_cache_blocks =
            std::max<std::size_t>(1, config.client_cache_blocks / shards);
        shard_config.server_cache_blocks =
            std::max<std::size_t>(1, config.server_cache_blocks / shards);
        shard_config.seed = options.seed + 0x9e3779b97f4a7c15ull * (shard + 1);
        shard_config.warmup_events = shard_warmup[shard];
        Simulator simulator(shard_config, &shard_events[shard]);
        const auto policy = MakePolicy(kind, options.params);
        const Result<SimulationResult> replay = simulator.Run(*policy);
        ASSERT_TRUE(replay.ok()) << replay.status().ToString();
        expected_gets += replay->reads;
        for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
          expected_levels[level] += replay->level_counts.Get(level);
        }
      }

      for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        options.policy = kind;
        options.shards = shards;
        options.client_threads = threads;
        Result<ServeReport> report = RunServe(options);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_EQ(report->get_ops, expected_gets);
        for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
          EXPECT_EQ(report->get_level_counts[level], expected_levels[level])
              << CacheLevelName(static_cast<CacheLevel>(level));
        }
      }
    }
  }
}

TEST(ServeHarnessTest, EightThreadStormCompletes) {
  ServeOptions options = SmallOptions();
  options.client_threads = 8;
  options.num_clients = 32;
  options.ops = 16'000;
  options.warmup_ops = 1'600;
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->client_threads, 8u);
  EXPECT_EQ(report->ops, options.ops);
  EXPECT_TRUE(report->consistent);
}

// Fewer requests than threads: stream 3 draws nothing, and most shard-rounds
// run no request.
TEST(ServeHarnessTest, StormWithFewerRequestsThanThreadsCompletes) {
  ServeOptions options = SmallOptions();
  options.client_threads = 4;
  options.ops = 3;
  options.warmup_ops = 0;
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shards, 4u);
  EXPECT_EQ(report->ops, 3u);
  EXPECT_EQ(report->get_ops + report->put_ops, 3u);
  EXPECT_TRUE(report->consistent) << report->consistency_error;
}

TEST(ServeHarnessTest, RejectsUnrunnableOptions) {
  {
    ServeOptions options = SmallOptions();
    options.client_threads = 0;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.num_clients = 1;  // Fewer clients than threads.
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.ops = 0;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.get_fraction = 1.5;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.num_files = 0;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.shards = 65;  // Above the derived count's cap.
    EXPECT_FALSE(RunServe(options).ok());
  }
}

}  // namespace
}  // namespace coopfs
