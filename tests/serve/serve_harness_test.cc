// Functional tests for the serving harness (src/serve/serve_harness.h):
// op-count conservation, per-level accounting, merged aggregates,
// bench-document round-trip, both key mixes, agreement with Simulator
// replay, and option validation. The randomized multi-thread invariant
// storms live in serve_stress_test.cc.
#include "src/serve/serve_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

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

TEST(ServeHarnessTest, CountsConserveAndLevelsSum) {
  const ServeOptions options = SmallOptions();
  Result<ServeReport> report = RunServe(options);
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
  EXPECT_EQ(report->client_threads, 2u);
  EXPECT_EQ(report->shards, 2u);  // Derived: pow2 >= threads.

  // The aggregates are unions: all gets of the four levels, total of gets
  // and puts.
  ExpectUnionOf(report->gets,
                std::vector<BenchLatency>(report->get_levels.begin(), report->get_levels.end()));
  ExpectUnionOf(report->total, {report->gets, report->puts});
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

// One client thread on one shard is a replay: Simulator::Run over the same
// op stream must satisfy every counted get at the same cache level.
TEST(ServeHarnessTest, OneThreadOneShardMatchesSimulatorReplay) {
  for (const PolicyKind kind : {PolicyKind::kNChance, PolicyKind::kGreedy}) {
    SCOPED_TRACE(PolicyKindName(kind));
    ServeOptions options = SmallOptions();
    options.client_threads = 1;
    options.shards = 1;
    options.policy = kind;
    options.mix = ServeKeyMix::kTrace;
    options.trace_events = 20'000;
    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // The storm's op stream, rebuilt as RunServe's trace pool is: the
    // read/write events of the Sprite-like workload, cycled, one 50 us
    // ticket apart.
    WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
    workload.num_clients = options.num_clients;
    workload.num_events = std::min<std::uint64_t>(
        std::max<std::uint64_t>(options.ops + options.warmup_ops, 10'000),
        options.trace_events);
    Trace pool;
    for (const TraceEvent& event : GenerateWorkload(workload)) {
      if (event.type == EventType::kRead || event.type == EventType::kWrite) {
        pool.push_back(event);
      }
    }
    ASSERT_FALSE(pool.empty());
    Trace stream;
    for (std::uint64_t i = 0; i < options.warmup_ops + options.ops; ++i) {
      TraceEvent event = pool[i % pool.size()];
      event.timestamp = static_cast<Micros>(i) * 50;
      stream.push_back(event);
    }

    // The sharded engine's shard 0 keeps the full capacities and seeds its
    // policy one SplitMix64 increment past the storm's seed.
    SimulationConfig config = options.config;
    config.num_clients = options.num_clients;
    config.seed = options.seed + 0x9e3779b97f4a7c15ull;
    config.warmup_events = options.warmup_ops;
    Simulator simulator(config, &stream);
    const auto policy = MakePolicy(kind, options.params);
    const Result<SimulationResult> replay = simulator.Run(*policy);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();

    EXPECT_EQ(report->get_ops, replay->reads);
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      EXPECT_EQ(report->get_level_counts[level], replay->level_counts.Get(level))
          << CacheLevelName(static_cast<CacheLevel>(level));
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
}

}  // namespace
}  // namespace coopfs
