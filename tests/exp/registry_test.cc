// Registry-wide coverage: every registered experiment runs end to end on a
// tiny trace, produces non-empty output and a valid manifest + metrics
// export, and the registered set matches what EXPERIMENTS.md documents.
#include "src/exp/experiment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/context.h"
#include "src/exp/driver.h"
#include "src/obs/metrics_exporter.h"
#include "src/obs/run_manifest.h"

namespace coopfs {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- GlobMatch ----

TEST(GlobMatchTest, LiteralAndStar) {
  EXPECT_TRUE(GlobMatch("fig04_read_time", "fig04_read_time"));
  EXPECT_FALSE(GlobMatch("fig04_read_time", "fig05_hit_rates"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("fig*", "fig04_read_time"));
  EXPECT_FALSE(GlobMatch("fig*", "sec25_other_algorithms"));
  EXPECT_TRUE(GlobMatch("*read*", "fig04_read_time"));
  EXPECT_TRUE(GlobMatch("*time", "fig04_read_time"));
  EXPECT_FALSE(GlobMatch("*times", "fig04_read_time"));
}

TEST(GlobMatchTest, QuestionMark) {
  EXPECT_TRUE(GlobMatch("fig0?_read_time", "fig04_read_time"));
  EXPECT_FALSE(GlobMatch("fig0?_read_time", "fig0_read_time"));
  EXPECT_TRUE(GlobMatch("???", "abc"));
  EXPECT_FALSE(GlobMatch("???", "ab"));
}

TEST(GlobMatchTest, CharacterClasses) {
  EXPECT_TRUE(GlobMatch("fig0[456]*", "fig04_read_time"));
  EXPECT_TRUE(GlobMatch("fig0[456]*", "fig05_hit_rates"));
  EXPECT_TRUE(GlobMatch("fig0[456]*", "fig06_server_load"));
  EXPECT_FALSE(GlobMatch("fig0[456]*", "fig07_fairness"));
  EXPECT_TRUE(GlobMatch("fig0[4-6]*", "fig05_hit_rates"));
  EXPECT_FALSE(GlobMatch("fig0[4-6]*", "fig09_central_fraction"));
  EXPECT_TRUE(GlobMatch("fig0[!456]*", "fig07_fairness"));
  EXPECT_FALSE(GlobMatch("fig0[!456]*", "fig04_read_time"));
  // An unterminated class can match nothing.
  EXPECT_FALSE(GlobMatch("fig0[45", "fig04_read_time"));
}

TEST(GlobMatchTest, StarBacktracks) {
  EXPECT_TRUE(GlobMatch("a*b*c", "axxbyybzc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "axxbyyb"));
  EXPECT_TRUE(GlobMatch("**", "x"));
}

// ---- registry ----

TEST(RegistryTest, BuiltinRegistrationIsIdempotent) {
  RegisterBuiltinExperiments();
  const std::size_t count = ExperimentRegistry::Instance().specs().size();
  RegisterBuiltinExperiments();
  EXPECT_EQ(ExperimentRegistry::Instance().specs().size(), count);
  EXPECT_EQ(count, 21u);
}

TEST(RegistryTest, FindAndMatchFollowRegistrationOrder) {
  RegisterBuiltinExperiments();
  const ExperimentRegistry& registry = ExperimentRegistry::Instance();
  const ExperimentSpec* fig04 = registry.Find("fig04_read_time");
  ASSERT_NE(fig04, nullptr);
  EXPECT_EQ(fig04->title, "Figure 4");
  EXPECT_EQ(registry.Find("no_such_experiment"), nullptr);

  const auto figures = registry.Match("fig0[456]*");
  ASSERT_EQ(figures.size(), 3u);
  EXPECT_EQ(figures[0]->name, "fig04_read_time");
  EXPECT_EQ(figures[1]->name, "fig05_hit_rates");
  EXPECT_EQ(figures[2]->name, "fig06_server_load");

  std::set<std::string> names;
  for (const ExperimentSpec& spec : registry.specs()) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate name " << spec.name;
    EXPECT_TRUE(spec.run != nullptr) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
  }
}

TEST(RegistryTest, RegisteredSetMatchesExperimentsDoc) {
  RegisterBuiltinExperiments();
  const std::string doc = ReadFileOrEmpty(std::string(COOPFS_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_FALSE(doc.empty()) << "EXPERIMENTS.md not found under " << COOPFS_SOURCE_DIR;
  for (const ExperimentSpec& spec : ExperimentRegistry::Instance().specs()) {
    EXPECT_NE(doc.find("`" + spec.name + "`"), std::string::npos)
        << "EXPERIMENTS.md does not mention experiment `" << spec.name << "`";
  }
}

// ---- every experiment end to end on a tiny trace ----

TEST(RegistryTest, EveryExperimentRunsOnATinyTrace) {
  RegisterBuiltinExperiments();
  const std::string scratch = testing::TempDir() + "/registry_tiny";
  std::filesystem::remove_all(scratch);

  DriverOptions options;
  options.threads = 2;
  options.out_dir.clear();  // RunExperiments returns manifests unwritten.
  options.bench.events = 4'000;
  options.bench.auspex_events = 15'000;
  options.bench.json_out = scratch + "/metrics";

  const auto specs = ExperimentRegistry::Instance().Match("*");
  ASSERT_EQ(specs.size(), 21u);
  const auto outcomes = RunExperiments(specs, options);
  ASSERT_EQ(outcomes.size(), specs.size());

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ExperimentOutcome& outcome = outcomes[i];
    const std::string& name = specs[i]->name;
    ASSERT_TRUE(outcome.status.ok()) << name << ": " << outcome.status.ToString();
    // Non-empty tables: every experiment prints its banner and at least one
    // table row.
    EXPECT_GT(outcome.output.size(), 100u) << name;
    EXPECT_NE(outcome.output.find("==="), std::string::npos) << name;

    // The accumulated manifest renders as a valid coopfs.run/v1 document.
    const std::string manifest_json = RunManifestToJson(outcome.manifest);
    EXPECT_TRUE(ValidateRunManifestDocument(manifest_json).ok())
        << name << ": " << ValidateRunManifestDocument(manifest_json).ToString();
    EXPECT_EQ(outcome.manifest.experiment, name);

    // Each experiment wrote a valid coopfs.metrics/v1 document.
    const std::string metrics =
        ReadFileOrEmpty(scratch + "/metrics/" + name + ".metrics.json");
    ASSERT_FALSE(metrics.empty()) << name;
    EXPECT_TRUE(ValidateMetricsDocument(metrics).ok())
        << name << ": " << ValidateMetricsDocument(metrics).ToString();

    // Simulation-backed experiments recorded results and configs.
    if (specs[i]->trace != TraceKind::kNone) {
      EXPECT_GT(outcome.manifest.num_results, 0u) << name;
      EXPECT_FALSE(outcome.manifest.configs.empty()) << name;
      EXPECT_FALSE(outcome.manifest.workloads.empty() &&
                   specs[i]->trace != TraceKind::kCustom)
          << name;
    }
  }
}

// ---- command-line parsing ----

// Parses `args` as a coopfs_bench command line (argv[0] supplied).
Result<DriverOptions> ParseArgs(std::vector<std::string> args) {
  args.insert(args.begin(), "coopfs_bench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return DriverOptions::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(DriverOptionsTest, RejectsMalformedValuesNamingTheFlag) {
  const std::pair<const char*, const char*> kBad[] = {
      {"--events", "-5"}, {"--events", "12abc"}, {"--events", ""},
      {"--events", "18446744073709551616"}, {"--seed", "abc"}, {"--seed", "-1"},
      {"--threads", "abc"}, {"--threads", "-2"}, {"--auspex-events", "1e6"},
      {"--sample-interval", "-1"}, {"--max-clients", "4294967296"},
      {"--metrics-detail", "bogus"},
  };
  for (const auto& [flag, value] : kBad) {
    const Result<DriverOptions> parsed = ParseArgs({"--filter", "fig04_read_time", flag, value});
    ASSERT_FALSE(parsed.ok()) << flag << " " << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << flag << " " << value;
    EXPECT_NE(parsed.status().message().find(flag), std::string::npos)
        << parsed.status().message();
  }
  EXPECT_FALSE(ParseArgs({"--events"}).ok());
  EXPECT_FALSE(ParseArgs({"--frobnicate", "1"}).ok());
}

TEST(DriverOptionsTest, ValidValuesParse) {
  const Result<DriverOptions> defaults = ParseArgs({});
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  EXPECT_EQ(defaults->filter, "*");
  EXPECT_EQ(defaults->threads, 0u);
  EXPECT_EQ(defaults->bench.events, BenchOptions().events);
  EXPECT_EQ(defaults->bench.seed, BenchOptions().seed);
  EXPECT_EQ(defaults->bench.sample_interval, BenchOptions().sample_interval);

  const Result<DriverOptions> parsed =
      ParseArgs({"--filter", "fig0[456]*", "--events", "100000", "--seed", "7", "--threads", "3",
                 "--auspex-events", "250000", "--sample-interval", "0", "--max-clients",
                 "10000", "--metrics-detail", "bounded", "--out-dir", "runs", "--json", "m"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->filter, "fig0[456]*");
  EXPECT_EQ(parsed->threads, 3u);
  EXPECT_EQ(parsed->out_dir, "runs");
  EXPECT_EQ(parsed->bench.events, 100'000u);
  EXPECT_EQ(parsed->bench.seed, 7u);
  EXPECT_EQ(parsed->bench.auspex_events, 250'000u);
  EXPECT_EQ(parsed->bench.sample_interval, 0);  // Warm-up and run-end samples only.
  EXPECT_EQ(parsed->bench.max_clients, 10'000u);
  EXPECT_EQ(parsed->bench.metrics_detail, MetricsDetail::kBounded);
  EXPECT_EQ(parsed->bench.json_out, "m");

  const Result<DriverOptions> extremes =
      ParseArgs({"--seed", "18446744073709551615", "--max-clients", "4294967295"});
  ASSERT_TRUE(extremes.ok()) << extremes.status().ToString();
  EXPECT_EQ(extremes->bench.seed, 18'446'744'073'709'551'615u);
  EXPECT_EQ(extremes->bench.max_clients, 4'294'967'295u);
}

// ---- driver determinism: thread count must not change the bytes ----

TEST(DriverDeterminismTest, ThreadCountDoesNotChangeTheBytes) {
  RegisterBuiltinExperiments();
  // A mix that exercises serial replays, a RunJobs sweep (fig11), and
  // multi-config loops (fig10) under the shared memoized trace.
  const auto specs = ExperimentRegistry::Instance().Match("fig1[01]*");
  ASSERT_EQ(specs.size(), 2u);

  DriverOptions serial;
  serial.threads = 1;
  serial.bench.events = 4'000;
  DriverOptions wide = serial;
  wide.threads = 8;

  const auto a = RunExperiments(specs, serial);
  const auto b = RunExperiments(specs, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok()) << a[i].status.ToString();
    ASSERT_TRUE(b[i].status.ok()) << b[i].status.ToString();
    EXPECT_EQ(a[i].output, b[i].output) << specs[i]->name;
    // Manifests agree on everything except wall time and thread count.
    RunManifest ma = a[i].manifest;
    RunManifest mb = b[i].manifest;
    ma.wall_time_s = mb.wall_time_s = 0.0;
    ma.threads = mb.threads = 1;
    EXPECT_EQ(RunManifestToJson(ma), RunManifestToJson(mb)) << specs[i]->name;
  }
}

}  // namespace
}  // namespace coopfs
