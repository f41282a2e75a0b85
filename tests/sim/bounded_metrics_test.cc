// End-to-end checks for MetricsDetail::kBounded, the O(K) telemetry mode:
//  - bounded runs carry a StreamSummary instead of per-client arrays, and
//    the detail knob must not change the simulation outcome itself;
//  - observability memory is a function of collector options only — the
//    ISSUE's 100k-client acceptance run is asserted here;
//  - exported bytes are deterministic across repeated runs and across
//    RunSimulationsParallel thread widths.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sweep.h"
#include "src/obs/metrics_exporter.h"
#include "src/sim/simulator.h"
#include "src/trace/event.h"

namespace coopfs {
namespace {

// Synthetic read-only trace touching clients spread over [0, num_clients)
// and a modest block population. Deterministic, no workload generator —
// keeps the 100k-client run fast and the event stream identical across
// client-count scalings (only the client ids differ).
Trace MakeTrace(std::uint32_t num_clients, std::size_t events) {
  Trace trace;
  trace.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    TraceEvent event;
    event.timestamp = static_cast<Micros>(i * 1000);
    // Knuth multiplicative hash scatters reads across the population.
    event.client = static_cast<ClientId>((i * 2654435761ull) % num_clients);
    event.block = {static_cast<FileId>(i % 16),
                   static_cast<BlockIndex>((i / 16) % 64)};
    event.type = EventType::kRead;
    trace.push_back(event);
  }
  return trace;
}

SimulationConfig BoundedConfig(std::uint32_t num_clients) {
  SimulationConfig config;
  // Tiny caches: per-client state stays negligible even at 100k clients.
  config.client_cache_blocks = 4;
  config.server_cache_blocks = 64;
  config.num_clients = num_clients;
  config.warmup_events = 1000;
  config.seed = 7;
  config.metrics_detail = MetricsDetail::kBounded;
  return config;
}

SimulationResult RunOne(const SimulationConfig& config, const Trace& trace,
                        PolicyKind kind = PolicyKind::kNChance) {
  Simulator simulator(config, &trace);
  auto policy = MakePolicy(kind);
  Result<SimulationResult> result = simulator.Run(*policy);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *std::move(result) : SimulationResult{};
}

TEST(BoundedMetricsTest, BoundedSummaryReplacesPerClientArrays) {
  const Trace trace = MakeTrace(1000, 20000);
  SimulationConfig config = BoundedConfig(1000);

  const SimulationResult bounded = RunOne(config, trace);
  ASSERT_TRUE(bounded.bounded.has_value());
  EXPECT_TRUE(bounded.per_client.empty());
  EXPECT_EQ(bounded.bounded->counted_reads, bounded.reads);
  EXPECT_FALSE(bounded.bounded->top_blocks.empty());
  EXPECT_FALSE(bounded.bounded->top_clients.empty());
  EXPECT_GT(bounded.bounded->memory_bytes, 0u);

  // The detail knob is pure observability: the replay itself is unchanged.
  config.metrics_detail = MetricsDetail::kFull;
  const SimulationResult full = RunOne(config, trace);
  EXPECT_FALSE(full.bounded.has_value());
  EXPECT_EQ(full.per_client.size(), 1000u);
  EXPECT_EQ(full.reads, bounded.reads);
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    EXPECT_EQ(full.level_counts.Get(level), bounded.level_counts.Get(level)) << level;
  }
  EXPECT_DOUBLE_EQ(full.AverageReadTime(), bounded.AverageReadTime());
}

TEST(BoundedMetricsTest, ObservabilityMemoryIndependentOfClientCount) {
  // The ISSUE acceptance run: a 100k-client bounded replay completes, and
  // its telemetry footprint is byte-for-byte the footprint of a 1k-client
  // run with the same collector options.
  const Trace small_trace = MakeTrace(1000, 20000);
  const SimulationResult small = RunOne(BoundedConfig(1000), small_trace);
  const Trace large_trace = MakeTrace(100000, 20000);
  const SimulationResult large = RunOne(BoundedConfig(100000), large_trace);

  ASSERT_TRUE(small.bounded.has_value());
  ASSERT_TRUE(large.bounded.has_value());
  EXPECT_EQ(small.bounded->memory_bytes, large.bounded->memory_bytes);
  // Summary payloads are O(top_k), not O(clients).
  EXPECT_LE(large.bounded->top_clients.size(), large.bounded->top_k);
  EXPECT_LE(large.bounded->top_blocks.size(), large.bounded->top_k);
  EXPECT_TRUE(large.per_client.empty());
  EXPECT_EQ(large.bounded->counted_reads, large.reads);
}

TEST(BoundedMetricsTest, ExportBytesDeterministicAcrossRunsAndThreads) {
  const Trace trace = MakeTrace(5000, 20000);
  const SimulationConfig config = BoundedConfig(5000);
  constexpr MetricsDetail kDetail = MetricsDetail::kBounded;

  // Repeated serial runs serialize identically.
  const std::string first = SimulationResultToJson(RunOne(config, trace), kDetail);
  const std::string second = SimulationResultToJson(RunOne(config, trace), kDetail);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"bounded\""), std::string::npos);
  EXPECT_EQ(first.find("\"per_client\""), std::string::npos);

  // And thread width never leaks into the bytes: each job owns its
  // collector, seeded from its config.
  std::vector<SimulationJob> jobs;
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kGreedy, PolicyKind::kNChance,
                          PolicyKind::kCentralCoord}) {
    SimulationJob job;
    job.config = config;
    job.kind = kind;
    jobs.push_back(job);
  }
  std::vector<Result<SimulationResult>> serial = RunSimulationsParallel(trace, jobs, 1);
  std::vector<Result<SimulationResult>> wide = RunSimulationsParallel(trace, jobs, 4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(wide.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status().ToString();
    ASSERT_TRUE(wide[i].ok()) << wide[i].status().ToString();
    EXPECT_EQ(SimulationResultToJson(*serial[i], kDetail),
              SimulationResultToJson(*wide[i], kDetail))
        << "policy index " << i;
  }
  // The N-Chance job from the sweep matches the standalone run bit-for-bit.
  EXPECT_EQ(SimulationResultToJson(*serial[2], kDetail), first);
}

}  // namespace
}  // namespace coopfs
