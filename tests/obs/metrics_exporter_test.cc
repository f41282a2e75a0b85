// Schema round-trip coverage for the coopfs.metrics/v1 exporter: every
// exported document must parse back, carry the documented field names, and
// agree numerically with the SimulationResult it came from (so `--json`
// output can never drift from the text tables, which are computed from the
// same result object).
#include "src/obs/metrics_exporter.h"

#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/core/policy_factory.h"
#include "src/obs/bench_report.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

class MetricsExporterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new Trace(GenerateWorkload(SmallTestWorkloadConfig()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static SimulationConfig TestConfig() {
    SimulationConfig config;
    config.WithClientCacheMiB(1).WithServerCacheMiB(4);
    config.warmup_events = trace_->size() / 4;
    return config;
  }

  static SimulationResult RunPolicy(PolicyKind kind) {
    SimulationConfig config = TestConfig();
    Simulator simulator(config, trace_);
    auto policy = MakePolicy(kind);
    Result<SimulationResult> result = simulator.Run(*policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *std::move(result);
  }

  static Trace* trace_;
};

Trace* MetricsExporterTest::trace_ = nullptr;

TEST_F(MetricsExporterTest, DocumentValidatesAndParsesBack) {
  MetricsExporter exporter;
  exporter.SetConfig(TestConfig());
  exporter.AddResult(RunPolicy(PolicyKind::kBaseline));
  exporter.AddResult(RunPolicy(PolicyKind::kNChance));
  const std::string document = exporter.ToJson();

  ASSERT_TRUE(ValidateMetricsDocument(document).ok())
      << ValidateMetricsDocument(document).ToString();
  Result<JsonValue> parsed = ParseJson(document);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->FindString("schema")->AsString(), kMetricsSchema);
  EXPECT_NE(parsed->FindString("coopfs_version"), nullptr);
  ASSERT_NE(parsed->FindArray("results"), nullptr);
  EXPECT_EQ(parsed->FindArray("results")->items().size(), 2u);
}

TEST_F(MetricsExporterTest, ExportedFieldsMatchResult) {
  const SimulationResult result = RunPolicy(PolicyKind::kNChance);
  MetricsExporter exporter;
  exporter.AddResult(result);
  Result<JsonValue> parsed = ParseJson(exporter.ToJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue& json = parsed->FindArray("results")->items().front();

  EXPECT_EQ(json.FindString("policy")->AsString(), result.policy_name);
  EXPECT_EQ(static_cast<std::uint64_t>(json.FindNumber("reads")->AsInt()), result.reads);
  EXPECT_EQ(json.FindNumber("avg_read_time_us")->AsDouble(), result.AverageReadTime());
  EXPECT_EQ(json.FindNumber("local_miss_rate")->AsDouble(), result.LocalMissRate());
  EXPECT_EQ(json.FindNumber("disk_rate")->AsDouble(), result.DiskRate());

  const JsonValue* levels = json.FindObject("levels");
  ASSERT_NE(levels, nullptr);
  const char* level_fields[kNumCacheLevels] = {"local_memory", "remote_client", "server_memory",
                                               "server_disk"};
  for (std::size_t i = 0; i < kNumCacheLevels; ++i) {
    const JsonValue* level = levels->FindObject(level_fields[i]);
    ASSERT_NE(level, nullptr) << level_fields[i];
    EXPECT_EQ(static_cast<std::uint64_t>(level->FindNumber("count")->AsInt()),
              result.level_counts.Get(i));
    EXPECT_EQ(level->FindNumber("fraction")->AsDouble(), result.level_counts.Fraction(i));
    EXPECT_EQ(level->FindNumber("time_us")->AsDouble(), result.level_time_us[i]);
  }

  const JsonValue* load = json.FindObject("server_load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(load->FindNumber("total_units")->AsInt()),
            result.server_load.TotalUnits());

  const JsonValue* counters = json.FindObject("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(counters->FindNumber("events_replayed")->AsInt()),
            result.counters.events_replayed);
  EXPECT_EQ(static_cast<std::uint64_t>(counters->FindNumber("recirculations")->AsInt()),
            result.counters.recirculations);
  // N-Chance on a shared workload must actually exercise the hooks.
  EXPECT_GT(result.counters.events_replayed, 0u);
  EXPECT_GT(result.counters.directory_ops, 0u);

  // Per-client array mirrors the fairness inputs (Figure 7).
  const JsonValue* per_client = json.FindArray("per_client");
  ASSERT_NE(per_client, nullptr);
  ASSERT_EQ(per_client->items().size(), result.per_client.size());
  for (std::size_t c = 0; c < result.per_client.size(); ++c) {
    EXPECT_EQ(static_cast<std::uint64_t>(
                  per_client->items()[c].FindNumber("reads")->AsInt()),
              result.per_client[c].reads);
  }
}

TEST_F(MetricsExporterTest, SerializationIsDeterministic) {
  const SimulationResult result = RunPolicy(PolicyKind::kCentralCoord);
  EXPECT_EQ(SimulationResultToJson(result), SimulationResultToJson(result));
}

TEST_F(MetricsExporterTest, ProvenanceHeaderIsPresent) {
  MetricsExporter exporter;
  exporter.AddResult(RunPolicy(PolicyKind::kBaseline));
  Result<JsonValue> parsed = ParseJson(exporter.ToJson());
  ASSERT_TRUE(parsed.ok());
  // Flat header fields, shared with coopfs.run/v1 manifests.
  ASSERT_NE(parsed->FindString("git_sha"), nullptr);
  EXPECT_FALSE(parsed->FindString("git_sha")->AsString().empty());
  ASSERT_NE(parsed->FindString("build_type"), nullptr);
  ASSERT_NE(parsed->FindNumber("host_threads"), nullptr);
  EXPECT_GE(parsed->FindNumber("host_threads")->AsInt(), 1);
}

TEST_F(MetricsExporterTest, BoundedDetailExportsStreamSummary) {
  SimulationConfig config = TestConfig();
  config.metrics_detail = MetricsDetail::kBounded;
  Simulator simulator(config, trace_);
  auto policy = MakePolicy(PolicyKind::kNChance);
  Result<SimulationResult> result = simulator.Run(*policy);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->bounded.has_value());

  MetricsExporter exporter(MetricsDetail::kBounded);
  exporter.SetConfig(config);
  exporter.AddResult(*result);
  const std::string document = exporter.ToJson();
  ASSERT_TRUE(ValidateMetricsDocument(document).ok())
      << ValidateMetricsDocument(document).ToString();

  Result<JsonValue> parsed = ParseJson(document);
  ASSERT_TRUE(parsed.ok());
  // Config records the detail knob.
  const JsonValue* config_json = parsed->FindObject("config");
  ASSERT_NE(config_json, nullptr);
  EXPECT_EQ(config_json->FindString("metrics_detail")->AsString(), "bounded");
  ASSERT_NE(config_json->FindNumber("bounded_top_k"), nullptr);

  const JsonValue& json = parsed->FindArray("results")->items().front();
  // Bounded runs never emit the O(N) array.
  EXPECT_EQ(json.Find("per_client"), nullptr);
  const JsonValue* bounded = json.FindObject("bounded");
  ASSERT_NE(bounded, nullptr);
  const StreamSummary& summary = *result->bounded;
  EXPECT_EQ(static_cast<std::uint64_t>(bounded->FindNumber("counted_reads")->AsInt()),
            summary.counted_reads);
  const JsonValue* top_blocks = bounded->FindArray("top_blocks");
  ASSERT_NE(top_blocks, nullptr);
  EXPECT_EQ(top_blocks->items().size(), summary.top_blocks.size());
  const JsonValue* top_clients = bounded->FindArray("top_clients");
  ASSERT_NE(top_clients, nullptr);
  EXPECT_EQ(top_clients->items().size(), summary.top_clients.size());
  const JsonValue* latency = bounded->FindObject("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->FindNumber("p50_us")->AsDouble(), summary.latency_p50_us);
  ASSERT_NE(latency->FindNumber("p999_us"), nullptr);
  EXPECT_EQ(latency->FindNumber("p999_us")->AsDouble(), summary.latency_p999_us);
  EXPECT_EQ(latency->FindNumber("mean_us")->AsDouble(), summary.latency_mean_us);
  const JsonValue* fairness = bounded->FindObject("fairness");
  ASSERT_NE(fairness, nullptr);
  EXPECT_EQ(fairness->FindNumber("top_client_share")->AsDouble(), summary.top_client_share);
  EXPECT_EQ(static_cast<std::uint64_t>(bounded->FindNumber("memory_bytes")->AsInt()),
            summary.memory_bytes);
}

TEST_F(MetricsExporterTest, WriteFileProducesValidDocument) {
  MetricsExporter exporter;
  exporter.SetConfig(TestConfig());
  exporter.AddResult(RunPolicy(PolicyKind::kGreedy));
  const std::string path = ::testing::TempDir() + "/coopfs_metrics_test.json";
  ASSERT_TRUE(exporter.WriteFile(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_TRUE(ValidateMetricsDocument(content).ok());
}

TEST(MetricsValidationTest, RejectsWrongSchemaAndShape) {
  EXPECT_FALSE(ValidateMetricsDocument("not json").ok());
  EXPECT_FALSE(ValidateMetricsDocument("[]").ok());
  EXPECT_FALSE(ValidateMetricsDocument(R"({"results": []})").ok());
  EXPECT_FALSE(
      ValidateMetricsDocument(R"({"schema": "coopfs.metrics/v999", "results": []})").ok());
  EXPECT_FALSE(ValidateMetricsDocument(R"({"schema": "coopfs.metrics/v1"})").ok());
  // A result missing required fields fails.
  EXPECT_FALSE(ValidateMetricsDocument(
                   R"({"schema": "coopfs.metrics/v1", "results": [{"policy": "x"}]})")
                   .ok());
  // Minimal empty-results document passes.
  EXPECT_TRUE(ValidateMetricsDocument(R"({"schema": "coopfs.metrics/v1", "results": []})").ok());
}

TEST(BenchReportTest, EmptySuiteIsValid) {
  // The perf_harness --dry-run path: an empty suite must still produce a
  // valid, schema-tagged document.
  BenchReport report;
  const std::string document = report.ToJson();
  EXPECT_TRUE(ValidateBenchDocument(document).ok()) << document;
  Result<JsonValue> parsed = ParseJson(document);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->FindString("schema")->AsString(), kBenchSchema);
  EXPECT_EQ(parsed->FindArray("series")->items().size(), 0u);
}

TEST(BenchReportTest, SeriesRoundTrip) {
  BenchReport report;
  BenchSeries series;
  series.name = "replay_serial_nchance";
  series.ops_per_sec = 2.5e6;
  series.wall_seconds = 0.28;
  series.items = 700'000;
  series.peak_rss_bytes = 123 << 20;
  report.series.push_back(series);
  const std::string document = report.ToJson();
  ASSERT_TRUE(ValidateBenchDocument(document).ok()) << document;
  Result<JsonValue> parsed = ParseJson(document);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& entry = parsed->FindArray("series")->items().front();
  EXPECT_EQ(entry.FindString("name")->AsString(), "replay_serial_nchance");
  EXPECT_EQ(entry.FindNumber("ops_per_sec")->AsDouble(), 2.5e6);
  EXPECT_EQ(static_cast<std::uint64_t>(entry.FindNumber("items")->AsInt()), 700'000u);
}

// A serve-shaped report: every series carries a latency object.
BenchReport LatencyReport() {
  const auto series = [](const char* name, double p50, double p999) {
    BenchSeries out;
    out.name = name;
    out.unit = "ops/s";
    out.ops_per_sec = 1e6;
    out.items = 6'000;
    out.latency = BenchLatency{.count = 6'000, .p50_us = p50, .p90_us = p50 + 5,
                               .p95_us = p50 + 8, .p99_us = p50 + 10, .p999_us = p999,
                               .mean_us = p50, .min_us = p50, .max_us = p999};
    return out;
  };
  BenchReport report;
  report.suite = "coopfs_serve";
  report.series.push_back(series("serve_get_local", 250.0, 280.0));
  report.series.push_back(series("serve_get_server_disk", 15'850.0, 15'950.0));
  return report;
}

TEST(BenchReportTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ValidateBenchDocument(R"({"schema": "coopfs.bench/v1"})").ok());
  EXPECT_FALSE(ValidateBenchDocument(
                   R"({"schema": "nope", "suite": "s", "series": []})")
                   .ok());
  EXPECT_FALSE(ValidateBenchDocument(
                   R"({"schema": "coopfs.bench/v1", "suite": "s", "series": [{"name": "x"}]})")
                   .ok());

  // Count fields must be integer tokens within their type: each of these
  // used to reach an undefined double-to-unsigned cast in the parser.
  const std::string valid = LatencyReport().ToJson();
  ASSERT_TRUE(ParseBenchDocument(valid).ok());
  const std::pair<const char*, const char*> kHostile[] = {
      {"host_threads", "-1"},   {"host_threads", "1e11"},  {"host_threads", "4294967296"},
      {"host_threads", "\"4\""}, {"items", "-5"},          {"items", "0.5"},
      {"peak_rss_bytes", "18446744073709551616"},         {"iterations", "4294967296"},
      {"iterations", "-1"},     {"count", "-1"},           {"count", "1e300"}};
  for (const auto& [key, value] : kHostile) {
    const std::string json = std::regex_replace(
        valid, std::regex(std::string("\"") + key + "\": [0-9]+"),
        std::string("\"") + key + "\": " + value, std::regex_constants::format_first_only);
    ASSERT_NE(json, valid) << key;
    EXPECT_EQ(ParseBenchDocument(json).status().code(), StatusCode::kDataLoss) << key << value;
  }
}

TEST(BenchReportTest, BenchLatencyRoundTripsThroughDocument) {
  const BenchReport report = LatencyReport();
  const std::string json = report.ToJson();
  ASSERT_TRUE(ValidateBenchDocument(json).ok());

  Result<BenchReport> parsed = ParseBenchDocument(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->series.size(), report.series.size());
  for (std::size_t i = 0; i < report.series.size(); ++i) {
    ASSERT_TRUE(parsed->series[i].latency.has_value()) << report.series[i].name;
    EXPECT_EQ(parsed->series[i].latency->count, report.series[i].latency->count);
    EXPECT_DOUBLE_EQ(parsed->series[i].latency->p50_us, report.series[i].latency->p50_us);
    EXPECT_DOUBLE_EQ(parsed->series[i].latency->p999_us, report.series[i].latency->p999_us);
    EXPECT_DOUBLE_EQ(parsed->series[i].latency->max_us, report.series[i].latency->max_us);
  }

  // The latency object stays additive: a throughput-only series round-trips
  // with the optional empty.
  BenchReport plain;
  BenchSeries series;
  series.name = "replay_baseline";
  series.ops_per_sec = 1e6;
  plain.series.push_back(series);
  Result<BenchReport> plain_parsed = ParseBenchDocument(plain.ToJson());
  ASSERT_TRUE(plain_parsed.ok());
  EXPECT_FALSE(plain_parsed->series[0].latency.has_value());
}

// A latency object with a mistyped field is a validation error, matching the
// additive-extension contract (absent fine, present-but-wrong rejected).
TEST(BenchReportTest, MistypedLatencyFieldFailsValidation) {
  std::string json = LatencyReport().ToJson();
  const std::string needle = "\"p999_us\": 280";
  const std::size_t pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"p999_us\": \"fast\"");
  EXPECT_FALSE(ValidateBenchDocument(json).ok());
}

TEST(BenchReportTest, PeakRssIsPlausible) {
  const std::uint64_t rss = CurrentPeakRssBytes();
  // On Linux this must be nonzero and at least a couple of MB for a running
  // gtest binary.
  EXPECT_GT(rss, 1u << 20);
}

}  // namespace
}  // namespace coopfs
