// Seeded mutation fuzz for every coopfs document parser besides the bench
// one (BenchDocumentFuzz in bench_gate_test.cc): events, timeseries,
// profile, metrics (full and bounded), run-manifest and diff documents.
// Each trial flips bytes, truncates, or swaps number tokens for hostile
// ones; the parser must return a Status or parse, never crash. A parsed
// events, timeseries or profile document must re-serialize to one that
// parses, and survive the run_diff differ that consumes it.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/profiler.h"
#include "src/common/rng.h"
#include "src/core/policy_factory.h"
#include "src/obs/metrics_exporter.h"
#include "src/obs/run_diff.h"
#include "src/obs/run_manifest.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

// One clean document of each kind, shaped like the exporters' output.
struct Documents {
  std::string events;
  std::string timeseries;
  std::string profile;
  std::string metrics_full;
  std::string metrics_bounded;
  std::string manifest;
  std::string diff;
};

// A short N-Chance replay under tight caches, so reads carry forward holders
// and recirculations, the op records include writes, invalidations and
// recirculations, and the sampler emits several windows. One sampler keeps
// per-client triplets, the other a heavy-reader top-K.
Documents MakeDocuments() {
  WorkloadConfig workload = SmallTestWorkloadConfig();
  workload.num_events = 400;
  const Trace trace = GenerateWorkload(workload);
  TraceExportMetadata metadata;
  metadata.seed = 7;
  metadata.trace_events = trace.size();
  metadata.workload = "fuzz";
  metadata.per_client_ceiling = 4096;

  Documents docs;
  TraceRecorder recorder;
  SnapshotSampler triplets;
  SnapshotSampler heavy_readers(SnapshotSamplerOptions{.include_per_client = false});
  MetricsExporter full;
  MetricsExporter bounded(MetricsDetail::kBounded);
  for (SnapshotSampler* sampler : {&triplets, &heavy_readers}) {
    SimulationConfig config = TinyConfig(4, 16);
    config.trace_recorder = &recorder;
    config.snapshot_sampler = sampler;
    config.sample_interval = (trace.back().timestamp - trace.front().timestamp) / 4 + 1;
    config.metrics_detail =
        sampler == &triplets ? MetricsDetail::kFull : MetricsDetail::kBounded;
    Simulator simulator(config, &trace);
    auto policy = MakePolicy(PolicyKind::kNChance);
    Result<SimulationResult> result = simulator.Run(*policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (sampler == &triplets ? full : bounded).SetConfig(config);
    (sampler == &triplets ? full : bounded).AddResult(*result);
  }
  docs.events = EventsToJsonl(recorder.runs(), metadata);
  std::vector<SnapshotRun> runs = triplets.runs();
  runs.insert(runs.end(), heavy_readers.runs().begin(), heavy_readers.runs().end());
  docs.timeseries = TimeseriesToJsonl(runs, metadata);
  docs.metrics_full = full.ToJson();
  docs.metrics_bounded = bounded.ToJson();

  const Profiler::Node evict{"policy/evict", 100, 200'000, {}};
  const Profiler::Node probe{"dir/probe", 300, 50'000, {}};
  const Profiler::Node rehash{"flat_map/rehash", 2, 700, {}};
  docs.profile = ProfileToJson({Profiler::Node{"sim/read", 1'000, 800'000, {evict, probe}},
                                Profiler::Node{"sim/write", 40, 9'000, {rehash}}});

  RunManifest manifest;
  manifest.experiment = "fig04_read_time";
  manifest.title = "Figure 4";
  manifest.description = "average block read time by algorithm";
  manifest.workloads = {"sprite"};
  manifest.events = 400;
  manifest.seed = 7;
  manifest.configs = {TinyConfig(4, 16, 8)};
  manifest.num_results = 2;
  manifest.wall_time_s = 0.25;
  manifest.command = "coopfs_bench --filter fig04_read_time --events 400";
  manifest.exports = {{"metrics", "coopfs.metrics/v1", "fig04.metrics.json"},
                      {"perfetto", "", "fig04.perfetto.json"}};
  docs.manifest = RunManifestToJson(manifest);

  DiffReport diff;
  diff.kind = DiffDocKind::kProfile;
  diff.baseline.label = "base.profile.json";
  diff.candidate.label = "cand.profile.json";
  diff.compared = 3;
  diff.unmatched_candidate = 1;
  for (const char* metric : {"self_share", "count"}) {
    DiffFinding finding;
    finding.kind = "profile_span";
    finding.name = "policy/evict";
    finding.metric = metric;
    finding.baseline = 0.2;
    finding.candidate = 0.5;
    finding.delta_pct = 150.0;
    finding.regression = true;
    diff.findings.push_back(finding);
  }
  docs.diff = diff.ToJson();
  return docs;
}

const Documents& CleanDocuments() {
  static const Documents docs = MakeDocuments();
  return docs;
}

// Runs 300 seeded mutations of `original` through `check`, which must return
// normally whatever the bytes.
void Fuzz(const std::string& original, std::uint64_t seed,
          const std::function<void(const std::string&)>& check) {
  constexpr const char* kHostileNumbers[] = {"-1",  "1e300", "18446744073709551616", "0.5",
                                             "256", "4294967296"};
  // A number token follows ':', ',' or '['; digits inside strings do not.
  const std::regex number(R"([:,\[]\s*(-?[0-9][0-9.eE+-]*))");
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // [start, length).
  for (auto it = std::sregex_iterator(original.begin(), original.end(), number);
       it != std::sregex_iterator(); ++it) {
    tokens.emplace_back(it->position(1), it->length(1));
  }
  ASSERT_GT(tokens.size(), 10u);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = original;
    switch (rng.NextBelow(3)) {
      case 0: {  // Flip 1-8 random bytes.
        for (std::uint64_t flips = 1 + rng.NextBelow(8); flips > 0; --flips) {
          bytes[rng.NextBelow(bytes.size())] = static_cast<char>(rng.NextBelow(256));
        }
        break;
      }
      case 1:
        bytes.resize(rng.NextBelow(bytes.size() + 1));
        break;
      case 2: {  // Swap 1-3 numbers for hostile ones, back to front.
        std::vector<std::size_t> picks;
        for (std::uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
          picks.push_back(rng.NextBelow(tokens.size()));
        }
        std::sort(picks.rbegin(), picks.rend());
        picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
        for (const std::size_t pick : picks) {
          bytes.replace(tokens[pick].first, tokens[pick].second,
                        kHostileNumbers[rng.NextBelow(std::size(kHostileNumbers))]);
        }
        break;
      }
    }
    check(bytes);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

class DocumentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DocumentFuzz, EventsParseOrFailCleanly) {
  const Result<EventsDocument> clean = ParseEventsJsonl(CleanDocuments().events);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  Fuzz(CleanDocuments().events, GetParam(), [](const std::string& bytes) {
    const Result<EventsDocument> parsed = ParseEventsJsonl(bytes);
    if (parsed.ok()) {
      for (const TraceRun& run : parsed->runs) {
        TraceRecorder::CountedTotals(run);
      }
      ASSERT_TRUE(ParseEventsJsonl(EventsToJsonl(parsed->runs, parsed->metadata)).ok())
          << bytes;
    }
  });
}

TEST_P(DocumentFuzz, TimeseriesParseOrFailCleanly) {
  const Result<TimeseriesDocument> clean = ParseTimeseriesJsonl(CleanDocuments().timeseries);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  Fuzz(CleanDocuments().timeseries, GetParam(), [&clean](const std::string& bytes) {
    const Result<TimeseriesDocument> parsed = ParseTimeseriesJsonl(bytes);
    if (parsed.ok()) {
      DiffTimeseriesDocuments(*clean, *parsed);
      ASSERT_TRUE(
          ParseTimeseriesJsonl(TimeseriesToJsonl(parsed->runs, parsed->metadata)).ok())
          << bytes;
    }
  });
}

TEST_P(DocumentFuzz, ProfileParseOrFailCleanly) {
  const Result<std::vector<Profiler::Node>> clean =
      ParseProfileDocument(CleanDocuments().profile);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  Fuzz(CleanDocuments().profile, GetParam(), [&clean](const std::string& bytes) {
    const Result<std::vector<Profiler::Node>> parsed = ParseProfileDocument(bytes);
    if (parsed.ok()) {
      DiffProfileDocuments(*clean, *parsed);
      ProfileSelfTimeTable(*parsed);
      ASSERT_TRUE(ParseProfileDocument(ProfileToJson(*parsed)).ok()) << bytes;
    }
  });
}

TEST_P(DocumentFuzz, MetricsValidateOrFailCleanly) {
  for (const std::string* original :
       {&CleanDocuments().metrics_full, &CleanDocuments().metrics_bounded}) {
    ASSERT_TRUE(ValidateMetricsDocument(*original).ok())
        << ValidateMetricsDocument(*original).ToString();
    const JsonValue clean = *ParseJson(*original);
    Fuzz(*original, GetParam(), [&clean](const std::string& bytes) {
      if (ValidateMetricsDocument(bytes).ok()) {
        DiffMetricsDocuments(clean, *ParseJson(bytes));
      }
    });
  }
}

TEST_P(DocumentFuzz, RunManifestValidatesOrFailsCleanly) {
  ASSERT_TRUE(ValidateRunManifestDocument(CleanDocuments().manifest).ok());
  Fuzz(CleanDocuments().manifest, GetParam(),
       [](const std::string& bytes) { (void)ValidateRunManifestDocument(bytes); });
}

TEST_P(DocumentFuzz, DiffValidatesOrFailsCleanly) {
  ASSERT_TRUE(ValidateDiffDocument(CleanDocuments().diff).ok());
  Fuzz(CleanDocuments().diff, GetParam(),
       [](const std::string& bytes) { (void)ValidateDiffDocument(bytes); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DocumentFuzz, ::testing::Values(1ull, 7ull, 31ull));

}  // namespace
}  // namespace coopfs
