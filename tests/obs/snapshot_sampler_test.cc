// Time-series state sampling (src/obs/snapshot_sampler.h).
//
// The load-bearing guarantees:
//   * Reconciliation — per-interval counted reads (and their per-level
//     latency sums) must add up *exactly* to the SimulationResult
//     aggregates, so the timeseries is a trustworthy decomposition of the
//     metrics document, not an approximation of it.
//   * Explicit gaps — every crossed interval boundary emits a sample, so a
//     quiet window shows up as window_reads == 0 instead of a hole.
//   * Determinism — identical (trace, config, policy) replays serialize to
//     byte-identical coopfs.timeseries/v1 documents, across repeated runs
//     and across RunSimulationsParallel thread counts (one sampler per job).
//   * Transparency — attaching a sampler must not perturb the simulation.
//   * Round-trip — ParseTimeseriesJsonl inverts TimeseriesToJsonl exactly.
#include "src/obs/snapshot_sampler.h"

#include <cstddef>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/policy_factory.h"
#include "src/core/sweep.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

class SnapshotSamplerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small Sprite-like trace under tight caches, so forwards,
    // recirculations, and evictions all fire inside the sampled windows.
    WorkloadConfig workload = SmallTestWorkloadConfig();
    workload.num_events = 30'000;
    trace_ = new Trace(GenerateWorkload(workload));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static Micros TraceSpan() { return trace_->back().timestamp - trace_->front().timestamp; }

  static SimulationConfig TestConfig() {
    SimulationConfig config;
    config.WithClientCacheMiB(1).WithServerCacheMiB(4);
    config.warmup_events = trace_->size() / 4;
    return config;
  }

  static SimulationResult RunSampled(PolicyKind kind, SnapshotSampler& sampler,
                                     Micros interval) {
    SimulationConfig config = TestConfig();
    config.snapshot_sampler = &sampler;
    config.sample_interval = interval;
    Simulator simulator(config, trace_);
    auto policy = MakePolicy(kind);
    Result<SimulationResult> result = simulator.Run(*policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *std::move(result);
  }

  static std::string Export(const SnapshotSampler& sampler) {
    TraceExportMetadata metadata;
    metadata.seed = 7;
    metadata.trace_events = trace_->size();
    metadata.workload = "small-test";
    return TimeseriesToJsonl(sampler.runs(), metadata);
  }

  static Trace* trace_;
};

Trace* SnapshotSamplerTest::trace_ = nullptr;

// ---- Scripted window semantics ----

TEST(SnapshotSamplerScriptedTest, WindowsTriggersAndEventCounts) {
  // Five reads 1000 µs apart; boundaries at 2500 and run end at 4000.
  TraceBuilder builder;
  for (FileId file = 1; file <= 5; ++file) {
    builder.Read(0, file);
  }
  SnapshotSampler sampler;
  SimulationConfig config = TinyConfig(8, 8);
  config.snapshot_sampler = &sampler;
  config.sample_interval = 2500;
  Simulator simulator(config, &builder.Build());
  auto policy = MakePolicy(PolicyKind::kBaseline);
  ASSERT_TRUE(simulator.Run(*policy).ok());

  ASSERT_EQ(sampler.runs().size(), 1u);
  const SnapshotRun& run = sampler.runs()[0];
  EXPECT_EQ(run.interval, 2500);
  EXPECT_EQ(run.start_time, 0);
  ASSERT_EQ(run.samples.size(), 2u);

  // [0, 2500): reads at 0, 1000, 2000.
  EXPECT_EQ(run.samples[0].trigger, SampleTrigger::kInterval);
  EXPECT_EQ(run.samples[0].time, 2500);
  EXPECT_EQ(run.samples[0].events_replayed, 3u);
  EXPECT_EQ(run.samples[0].window_reads, 3u);
  EXPECT_EQ(run.samples[0].CountedReads(), 3u);  // warmup_events == 0.

  // Partial window closed by the trace end: reads at 3000, 4000.
  EXPECT_EQ(run.samples[1].trigger, SampleTrigger::kRunEnd);
  EXPECT_EQ(run.samples[1].time, 4000);
  EXPECT_EQ(run.samples[1].events_replayed, 5u);
  EXPECT_EQ(run.samples[1].window_reads, 2u);

  // All misses went to disk in both windows.
  const auto disk = static_cast<std::size_t>(CacheLevel::kServerDisk);
  EXPECT_EQ(run.samples[0].level_reads[disk], 3u);
  EXPECT_EQ(run.samples[1].level_reads[disk], 2u);
}

TEST(SnapshotSamplerScriptedTest, QuietWindowsEmitExplicitZeroReadSamples) {
  // Reads at t=0 and t=1000, then nothing until t=9000: boundaries 2000,
  // 4000, 6000, 8000 all fire when the t=9000 read arrives.
  TraceBuilder builder;
  for (FileId file = 1; file <= 10; ++file) {
    builder.Read(0, file);
  }
  Trace trace = builder.Build();
  trace.resize(3);
  trace[2].timestamp = 9000;

  SnapshotSampler sampler;
  SimulationConfig config = TinyConfig(8, 8);
  config.snapshot_sampler = &sampler;
  config.sample_interval = 2000;
  Simulator simulator(config, &trace);
  auto policy = MakePolicy(PolicyKind::kBaseline);
  ASSERT_TRUE(simulator.Run(*policy).ok());

  const SnapshotRun& run = sampler.runs()[0];
  ASSERT_EQ(run.samples.size(), 5u);
  EXPECT_EQ(run.samples[0].time, 2000);
  EXPECT_EQ(run.samples[0].window_reads, 2u);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(run.samples[i].trigger, SampleTrigger::kInterval);
    EXPECT_EQ(run.samples[i].time, 2000 + 2000 * static_cast<Micros>(i));
    EXPECT_EQ(run.samples[i].window_reads, 0u) << "gap window " << i;
    // No events ran between the boundaries: the gauges are carried over.
    EXPECT_EQ(run.samples[i].state, run.samples[0].state);
    EXPECT_EQ(run.samples[i].events_replayed, 2u);
  }
  EXPECT_EQ(run.samples[4].trigger, SampleTrigger::kRunEnd);
  EXPECT_EQ(run.samples[4].window_reads, 1u);
}

TEST(SnapshotSamplerScriptedTest, ForwardedReadsCountAsDonationAndBenefit) {
  // Client 0 faults f1 from disk; client 1 then reads it remotely from
  // client 0's cache (a zero-block server cache forces the directory
  // forward instead of a server-memory hit).
  TraceBuilder builder;
  builder.Read(0, 1).Read(1, 1);
  SnapshotSampler sampler;
  SimulationConfig config = TinyConfig(4, 0, 2);
  config.snapshot_sampler = &sampler;
  config.sample_interval = 0;  // Run-end sample only.
  Simulator simulator(config, &builder.Build());
  auto policy = MakePolicy(PolicyKind::kNChance);
  ASSERT_TRUE(simulator.Run(*policy).ok());

  const SnapshotRun& run = sampler.runs()[0];
  ASSERT_EQ(run.samples.size(), 1u);
  const StateSample& sample = run.samples[0];
  EXPECT_EQ(sample.trigger, SampleTrigger::kRunEnd);
  const auto remote = static_cast<std::size_t>(CacheLevel::kRemoteClient);
  ASSERT_EQ(sample.level_reads[remote], 1u);
  ASSERT_EQ(sample.clients.size(), 2u);
  EXPECT_EQ(sample.clients[0].reads, 1u);
  EXPECT_EQ(sample.clients[0].donated, 1u);
  EXPECT_EQ(sample.clients[0].benefited, 0u);
  EXPECT_EQ(sample.clients[1].reads, 1u);
  EXPECT_EQ(sample.clients[1].donated, 0u);
  EXPECT_EQ(sample.clients[1].benefited, 1u);
}

// ---- Reconciliation with SimulationResult ----

TEST_F(SnapshotSamplerTest, WindowCountsReconcileExactlyWithMetrics) {
  for (PolicyKind kind : AllPolicyKinds()) {
    SnapshotSampler sampler;
    const SimulationResult result = RunSampled(kind, sampler, TraceSpan() / 7);
    ASSERT_EQ(sampler.runs().size(), 1u);
    const SnapshotRun& run = sampler.runs()[0];
    ASSERT_GE(run.samples.size(), 7u) << result.policy_name;

    std::uint64_t all_reads = 0;
    std::array<std::uint64_t, kNumCacheLevels> level_reads{};
    std::array<double, kNumCacheLevels> level_time{};
    std::uint64_t warmup_end_samples = 0;
    for (const StateSample& sample : run.samples) {
      all_reads += sample.window_reads;
      warmup_end_samples += sample.trigger == SampleTrigger::kWarmupEnd ? 1 : 0;
      for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
        level_reads[level] += sample.level_reads[level];
        level_time[level] += sample.level_time_us[level];
      }
    }
    EXPECT_EQ(warmup_end_samples, 1u) << result.policy_name;
    std::uint64_t trace_reads = 0;
    for (const TraceEvent& event : *trace_) {
      trace_reads += event.type == EventType::kRead ? 1 : 0;
    }
    EXPECT_EQ(all_reads, trace_reads) << result.policy_name;
    std::uint64_t counted_total = 0;
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      EXPECT_EQ(level_reads[level], result.level_counts.Get(level))
          << result.policy_name << " level " << level;
      // Latencies are integral µs, so double sums are exact in any order.
      EXPECT_DOUBLE_EQ(level_time[level], result.level_time_us[level])
          << result.policy_name << " level " << level;
      counted_total += level_reads[level];
    }
    EXPECT_EQ(counted_total, result.reads) << result.policy_name;
    EXPECT_EQ(run.samples.back().events_replayed, trace_->size());

    // Per-client window triplets add up to the per-client aggregates.
    std::vector<std::uint64_t> client_reads(run.num_clients, 0);
    for (const StateSample& sample : run.samples) {
      ASSERT_EQ(sample.clients.size(), run.num_clients);
      for (std::size_t c = 0; c < sample.clients.size(); ++c) {
        client_reads[c] += sample.clients[c].reads;
      }
    }
    ASSERT_EQ(result.per_client.size(), client_reads.size());
    for (std::size_t c = 0; c < client_reads.size(); ++c) {
      EXPECT_EQ(client_reads[c], result.per_client[c].reads)
          << result.policy_name << " client " << c;
    }
  }
}

TEST_F(SnapshotSamplerTest, WarmupWindowsHaveNoCountedReads) {
  SnapshotSampler sampler;
  RunSampled(PolicyKind::kNChance, sampler, TraceSpan() / 7);
  const SnapshotRun& run = sampler.runs()[0];
  bool past_warmup = false;
  for (const StateSample& sample : run.samples) {
    if (!past_warmup) {
      EXPECT_EQ(sample.CountedReads(), 0u) << "sample " << sample.index;
    }
    if (sample.trigger == SampleTrigger::kWarmupEnd) {
      past_warmup = true;
      EXPECT_EQ(sample.events_replayed, TestConfig().warmup_events);
    }
  }
  EXPECT_TRUE(past_warmup);
  EXPECT_GT(run.samples.back().CountedReads(), 0u);
}

TEST_F(SnapshotSamplerTest, RunEndGaugesMatchFinalContext) {
  SnapshotSampler sampler;
  SimulationConfig config = TestConfig();
  config.snapshot_sampler = &sampler;
  config.sample_interval = TraceSpan() / 7;
  Simulator simulator(config, trace_);
  auto policy = MakePolicy(PolicyKind::kNChance);
  StateProbe expected;
  Result<SimulationResult> result = simulator.Run(*policy, [&](SimContext& context) {
    for (ClientId c = 0; c < context.num_clients(); ++c) {
      expected.client_blocks_used += context.client_cache(c).size();
      expected.client_blocks_capacity += context.client_cache(c).capacity();
      expected.recirculating_copies += context.client_cache(c).RecirculatingCount();
      expected.dirty_blocks += context.client_cache(c).DirtyCount();
    }
    for (std::uint32_t s = 0; s < context.num_servers(); ++s) {
      expected.server_blocks_used += context.server_cache(s).size();
      expected.server_blocks_capacity += context.server_cache(s).capacity();
    }
    const Directory::DuplicationCounts dup = context.directory().CountDuplication();
    expected.singlet_blocks = dup.singlets;
    expected.duplicate_blocks = dup.duplicates;
    expected.directory_blocks = dup.singlets + dup.duplicates;
    for (std::size_t kind = 0; kind < kNumServerLoadKinds; ++kind) {
      expected.load_units[kind] =
          context.server_load().Units(static_cast<ServerLoadKind>(kind));
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const StateSample& last = sampler.runs()[0].samples.back();
  ASSERT_EQ(last.trigger, SampleTrigger::kRunEnd);
  EXPECT_EQ(last.state, expected);
  // A tight-cache cooperative run actually exercises the gauges.
  EXPECT_GT(last.state.client_blocks_used, 0u);
  EXPECT_GT(last.state.directory_blocks, 0u);
  EXPECT_GT(last.state.load_units[static_cast<std::size_t>(ServerLoadKind::kHitDisk)], 0u);
}

TEST_F(SnapshotSamplerTest, AttachingSamplerDoesNotPerturbSimulation) {
  SimulationConfig plain_config = TestConfig();
  Simulator plain(plain_config, trace_);
  auto policy = MakePolicy(PolicyKind::kNChance);
  Result<SimulationResult> baseline = plain.Run(*policy);
  ASSERT_TRUE(baseline.ok());

  SnapshotSampler sampler;
  const SimulationResult sampled = RunSampled(PolicyKind::kNChance, sampler, TraceSpan() / 7);
  EXPECT_EQ(sampled.reads, baseline->reads);
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    EXPECT_EQ(sampled.level_counts.Get(level), baseline->level_counts.Get(level));
    EXPECT_DOUBLE_EQ(sampled.level_time_us[level], baseline->level_time_us[level]);
  }
  EXPECT_EQ(sampled.server_load.TotalUnits(), baseline->server_load.TotalUnits());
}

// ---- Determinism ----

TEST_F(SnapshotSamplerTest, RepeatedRunsExportIdenticalBytes) {
  SnapshotSampler first;
  RunSampled(PolicyKind::kNChance, first, TraceSpan() / 7);
  SnapshotSampler second;
  RunSampled(PolicyKind::kNChance, second, TraceSpan() / 7);
  const std::string bytes = Export(first);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(Export(second), bytes);
}

TEST_F(SnapshotSamplerTest, SweepThreadCountDoesNotChangeTheBytes) {
  // One sampler per job: samplers are not thread-safe, and per-job sampling
  // is what keeps parallel sweeps deterministic.
  auto run_sweep = [&](std::size_t threads) {
    std::vector<SnapshotSampler> samplers(3);
    std::vector<SimulationJob> jobs(3);
    const PolicyKind kinds[] = {PolicyKind::kGreedy, PolicyKind::kNChance,
                                PolicyKind::kCentralCoord};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].config = TestConfig();
      jobs[i].config.snapshot_sampler = &samplers[i];
      jobs[i].config.sample_interval = TraceSpan() / 7;
      jobs[i].kind = kinds[i];
    }
    auto results = RunSimulationsParallel(*trace_, jobs, threads);
    for (const auto& result : results) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
    std::string combined;
    for (const SnapshotSampler& sampler : samplers) {
      combined += Export(sampler);
      combined += '\n';
    }
    return combined;
  };
  const std::string serial = run_sweep(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(run_sweep(3), serial) << "3-thread sweep diverged from serial";
}

// ---- JSONL round-trip and validation ----

TEST_F(SnapshotSamplerTest, JsonlRoundTripsExactly) {
  SnapshotSampler sampler;
  RunSampled(PolicyKind::kNChance, sampler, TraceSpan() / 7);
  const std::string jsonl = Export(sampler);

  Result<TimeseriesDocument> parsed = ParseTimeseriesJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->metadata.seed, 7u);
  EXPECT_EQ(parsed->metadata.trace_events, trace_->size());
  EXPECT_EQ(parsed->metadata.workload, "small-test");
  ASSERT_EQ(parsed->runs.size(), 1u);
  EXPECT_EQ(parsed->runs[0], sampler.runs()[0]);

  TraceExportMetadata metadata = parsed->metadata;
  EXPECT_EQ(TimeseriesToJsonl(parsed->runs, metadata), jsonl);
  EXPECT_TRUE(ValidateTimeseriesDocument(jsonl).ok());
}

TEST_F(SnapshotSamplerTest, ParserRejectsCorruptDocuments) {
  SnapshotSampler sampler;
  RunSampled(PolicyKind::kNChance, sampler, TraceSpan() / 7);
  const std::string jsonl = Export(sampler);

  EXPECT_FALSE(ParseTimeseriesJsonl("").ok());
  EXPECT_FALSE(ParseTimeseriesJsonl("{\"type\":\"sample\"}").ok());
  EXPECT_FALSE(ParseTimeseriesJsonl("not json at all").ok());

  // Drop the header: samples may not lead.
  const std::size_t first_newline = jsonl.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  EXPECT_FALSE(ParseTimeseriesJsonl(jsonl.substr(first_newline + 1)).ok());

  // Corrupt a consistency invariant: singlets + duplicates == dir_blocks.
  const std::size_t singlets = jsonl.find("\"singlets\":");
  ASSERT_NE(singlets, std::string::npos);
  std::string broken = jsonl;
  broken.replace(singlets, 12, "\"singlets\":9");
  // Only a no-op replacement if the count already was 9; nudge differently.
  if (broken == jsonl) {
    broken.replace(singlets, 12, "\"singlets\":8");
  }
  EXPECT_FALSE(ParseTimeseriesJsonl(broken).ok());
}

// Every id and count is read as its in-memory type: a num_clients of
// 4294967338 once read back as 42 clients.
TEST_F(SnapshotSamplerTest, OutOfRangeFieldsAreDataLoss) {
  SnapshotSampler sampler;
  RunSampled(PolicyKind::kNChance, sampler, TraceSpan() / 7);
  const std::string jsonl = Export(sampler);
  ASSERT_TRUE(ParseTimeseriesJsonl(jsonl).ok());
  const std::pair<const char*, const char*> kHostile[] = {
      {"num_clients", "4294967338"}, {"seed", "-1"}, {"events", "18446744073709551616"},
      {"interval_us", "0.5"}};
  for (const auto& [key, value] : kHostile) {
    const std::string corrupt = std::regex_replace(
        jsonl, std::regex(std::string("\"") + key + "\":[0-9]+"),
        std::string("\"") + key + "\":" + value, std::regex_constants::format_first_only);
    ASSERT_NE(corrupt, jsonl) << key;
    EXPECT_EQ(ParseTimeseriesJsonl(corrupt).status().code(), StatusCode::kDataLoss) << key;
  }
}

// ---- Per-client ceiling (bounded-memory mode) ----

namespace {

// One read from each of `num_clients` clients, all of file 1.
const Trace& FanOutTrace(TraceBuilder& builder, ClientId num_clients) {
  for (ClientId c = 0; c < num_clients; ++c) {
    builder.Read(c, 1, c);
  }
  return builder.Build();
}

SimulationResult RunWithSampler(SnapshotSampler& sampler, const Trace& trace) {
  SimulationConfig config = TinyConfig(8, 8);
  config.snapshot_sampler = &sampler;
  config.sample_interval = 0;  // Run-end sample only.
  Simulator simulator(config, &trace);
  auto policy = MakePolicy(PolicyKind::kBaseline);
  Result<SimulationResult> result = simulator.Run(*policy);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *std::move(result) : SimulationResult{};
}

}  // namespace

TEST(SnapshotSamplerCeilingTest, CeilingAutoDisablesPerClientTriplets) {
  SnapshotSamplerOptions options;
  options.per_client_ceiling = 4;
  SnapshotSampler sampler(options);
  TraceBuilder builder;
  RunWithSampler(sampler, FanOutTrace(builder, 8));  // 8 clients > ceiling 4.

  ASSERT_EQ(sampler.runs().size(), 1u);
  const SnapshotRun& run = sampler.runs()[0];
  EXPECT_EQ(run.per_client_mode, PerClientMode::kAutoOff);
  ASSERT_FALSE(run.samples.empty());
  const StateSample& sample = run.samples.back();
  EXPECT_TRUE(sample.clients.empty());
  // The O(K) heavy-reader summary replaces the triplets.
  ASSERT_FALSE(sample.top_clients.empty());
  EXPECT_LE(sample.top_clients.size(), options.window_top_k);
  std::uint64_t top_reads = 0;
  for (const WindowTopClient& top : sample.top_clients) {
    top_reads += top.reads;
    EXPECT_EQ(top.error, 0u);  // 8 distinct clients fit top_k = 8 exactly.
  }
  EXPECT_EQ(top_reads, 8u);
}

TEST(SnapshotSamplerCeilingTest, ExplicitIncludeOverridesCeiling) {
  SnapshotSamplerOptions options;
  options.include_per_client = true;
  options.per_client_ceiling = 1;
  SnapshotSampler sampler(options);
  TraceBuilder builder;
  RunWithSampler(sampler, FanOutTrace(builder, 8));

  const SnapshotRun& run = sampler.runs()[0];
  EXPECT_EQ(run.per_client_mode, PerClientMode::kFull);
  EXPECT_EQ(run.samples.back().clients.size(), 8u);
  EXPECT_TRUE(run.samples.back().top_clients.empty());
}

TEST(SnapshotSamplerCeilingTest, ExplicitOffDisablesTriplets) {
  SnapshotSamplerOptions options;
  options.include_per_client = false;
  SnapshotSampler sampler(options);
  TraceBuilder builder;
  RunWithSampler(sampler, FanOutTrace(builder, 2));  // Under the ceiling.

  const SnapshotRun& run = sampler.runs()[0];
  EXPECT_EQ(run.per_client_mode, PerClientMode::kOff);
  EXPECT_TRUE(run.samples.back().clients.empty());
  EXPECT_FALSE(run.samples.back().top_clients.empty());
}

TEST(SnapshotSamplerCeilingTest, WindowTopKZeroDisablesHeavyReaders) {
  SnapshotSamplerOptions options;
  options.include_per_client = false;
  options.window_top_k = 0;
  SnapshotSampler sampler(options);
  TraceBuilder builder;
  RunWithSampler(sampler, FanOutTrace(builder, 4));

  const SnapshotRun& run = sampler.runs()[0];
  EXPECT_EQ(run.per_client_mode, PerClientMode::kOff);
  EXPECT_TRUE(run.samples.back().clients.empty());
  EXPECT_TRUE(run.samples.back().top_clients.empty());
}

TEST(SnapshotSamplerCeilingTest, BoundedFieldsRoundTripThroughJsonl) {
  SnapshotSamplerOptions options;
  options.per_client_ceiling = 4;
  SnapshotSampler sampler(options);
  TraceBuilder builder;
  RunWithSampler(sampler, FanOutTrace(builder, 8));

  TraceExportMetadata metadata;
  metadata.seed = 7;
  metadata.trace_events = 8;
  metadata.workload = "fan-out";
  metadata.per_client_ceiling = options.per_client_ceiling;
  const std::string jsonl = TimeseriesToJsonl(sampler.runs(), metadata);
  EXPECT_NE(jsonl.find("\"per_client\":\"auto_off\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"per_client_ceiling\":4"), std::string::npos);
  EXPECT_NE(jsonl.find("\"top_clients\":"), std::string::npos);

  Result<TimeseriesDocument> parsed = ParseTimeseriesJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->metadata.per_client_ceiling, 4u);
  ASSERT_EQ(parsed->runs.size(), 1u);
  EXPECT_EQ(parsed->runs[0], sampler.runs()[0]);
  EXPECT_EQ(TimeseriesToJsonl(parsed->runs, parsed->metadata), jsonl);
}

TEST(SnapshotSamplerCeilingTest, DocumentsWithoutPerClientFieldParseAsFull) {
  SnapshotSampler sampler;  // Defaults: 8 clients < ceiling, full triplets.
  TraceBuilder builder;
  RunWithSampler(sampler, FanOutTrace(builder, 3));
  TraceExportMetadata metadata;
  metadata.seed = 1;
  metadata.trace_events = 3;
  std::string jsonl = TimeseriesToJsonl(sampler.runs(), metadata);

  // Simulate a pre-ceiling document: strip the additive run field.
  const std::string field = ",\"per_client\":\"full\"";
  const std::size_t at = jsonl.find(field);
  ASSERT_NE(at, std::string::npos);
  jsonl.erase(at, field.size());
  Result<TimeseriesDocument> parsed = ParseTimeseriesJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->runs[0].per_client_mode, PerClientMode::kFull);
}

TEST(SnapshotSamplerUnitTest, PerClientModeNamesRoundTrip) {
  for (PerClientMode mode : {PerClientMode::kFull, PerClientMode::kAutoOff,
                             PerClientMode::kOff}) {
    PerClientMode parsed = PerClientMode::kFull;
    EXPECT_TRUE(PerClientModeFromName(PerClientModeName(mode), parsed));
    EXPECT_EQ(parsed, mode);
  }
  PerClientMode parsed = PerClientMode::kFull;
  EXPECT_FALSE(PerClientModeFromName("bogus", parsed));
}

TEST(SnapshotSamplerUnitTest, TriggerNamesRoundTrip) {
  for (SampleTrigger trigger : {SampleTrigger::kInterval, SampleTrigger::kWarmupEnd,
                                SampleTrigger::kRunEnd}) {
    SampleTrigger parsed = SampleTrigger::kInterval;
    EXPECT_TRUE(SampleTriggerFromName(SampleTriggerName(trigger), parsed));
    EXPECT_EQ(parsed, trigger);
  }
  SampleTrigger parsed = SampleTrigger::kInterval;
  EXPECT_FALSE(SampleTriggerFromName("bogus", parsed));
}

}  // namespace
}  // namespace coopfs
