// Bench gate: holds "coopfs.bench/v1" documents to the rule table in
// src/obs/bench_gate.cc.
//
// Usage: bench_compare BASELINE.json CANDIDATE.json
//        bench_compare DOC.json
//
// Two-document mode prints a throughput delta table for every series the
// two documents share, then evaluates every rule on the candidate, the two
// baseline rules included: each baseline replay_* series must reach 0.90 x
// its baseline throughput in the candidate, and each shared serve_* p99 may
// grow at most 50%. Single-document mode evaluates the rules that need no
// baseline: the sweep's scaling floor and monotonicity, the bounded-metrics
// overhead ceiling, and the serve quantile and memory-hierarchy orderings.
// Each violated bound prints one "bench_compare: <GATE> <series>: ..." line
// with GATE one of REGRESSION, SCALING, OBS, SERVE; docs/performance.md
// lists every row and the reason for its bound.
//
// On any gate failure the tool prints both documents' provenance (git_sha,
// build_type, host_threads) and, in two-document mode, attributes the
// failure: when both runs shipped the perf_harness sidecars
// ("<doc minus .json>.profile.json" / "<...>.timeseries.jsonl"), it diffs
// them through src/obs/run_diff and names the top-3 suspect profiler spans
// and timeseries windows on "bench_compare: SUSPECT" lines — so a tripped
// gate arrives with forensics, not just a ratio.
//
// CI runs this against the committed BENCH_coopfs.json; see
// docs/performance.md for the re-baselining workflow.
//
// Exit codes: 0 = all gates pass, 1 = a gate failed, 2 = usage/load error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/format.h"
#include "src/common/json.h"
#include "src/obs/bench_gate.h"
#include "src/obs/bench_report.h"
#include "src/obs/run_diff.h"

namespace coopfs {
namespace {

// Loads and schema-validates one bench document.
std::optional<BenchReport> LoadReport(const std::string& path) {
  Result<std::string> text = ReadTextFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n", text.status().ToString().c_str());
    return std::nullopt;
  }
  Result<BenchReport> report = ParseBenchDocument(*text);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 report.status().ToString().c_str());
    return std::nullopt;
  }
  return *std::move(report);
}

// Throughput of every series both documents carry, baseline -> candidate.
void PrintDeltaTable(const BenchReport& baseline, const BenchReport& candidate) {
  TableFormatter table({"Series", "Baseline", "Candidate", "Delta"});
  for (const BenchSeries& base : baseline.series) {
    const auto cand = std::find_if(candidate.series.begin(), candidate.series.end(),
                                   [&base](const BenchSeries& s) { return s.name == base.name; });
    if (cand == candidate.series.end()) {
      continue;
    }
    const double delta_pct = base.ops_per_sec > 0.0
        ? (cand->ops_per_sec - base.ops_per_sec) / base.ops_per_sec * 100.0
        : 0.0;
    table.AddRow({base.name, FormatDouble(base.ops_per_sec / 1e6, 2) + " M/s",
                  FormatDouble(cand->ops_per_sec / 1e6, 2) + " M/s",
                  FormatDouble(delta_pct, 1) + " %"});
  }
  std::printf("%s", table.ToString().c_str());
}

// One "git <sha> (<build>, <N> host threads)" provenance line per document,
// printed with the failure block so CI logs are self-contained.
void PrintProvenance(const char* who, const std::string& path, const BenchReport& report) {
  std::fprintf(stderr, "bench_compare: %s %s: git %s (%s, %u host threads)\n", who,
               path.c_str(), report.git_sha.c_str(), report.build_type.c_str(),
               report.host_threads);
}

// "<doc minus a trailing .json>" — the sidecar naming convention shared with
// bench/perf_harness.
std::string SidecarBase(const std::string& path) {
  constexpr std::string_view kJsonSuffix = ".json";
  if (path.size() > kJsonSuffix.size() &&
      path.compare(path.size() - kJsonSuffix.size(), kJsonSuffix.size(), kJsonSuffix) == 0) {
    return path.substr(0, path.size() - kJsonSuffix.size());
  }
  return path;
}

// Failure attribution: diffs the profile and timeseries sidecars shipped
// alongside the two bench documents and prints the top-3 suspects ranked by
// |delta| across both, with absolute values. Missing sidecars are noted, not
// errors — older baselines predate them.
void PrintSuspects(const std::string& baseline_path, const std::string& candidate_path) {
  std::vector<DiffFinding> suspects;
  for (const char* suffix : {".profile.json", ".timeseries.jsonl"}) {
    const std::string base_sidecar = SidecarBase(baseline_path) + suffix;
    const std::string cand_sidecar = SidecarBase(candidate_path) + suffix;
    std::error_code ec;
    if (!std::filesystem::exists(base_sidecar, ec) ||
        !std::filesystem::exists(cand_sidecar, ec)) {
      std::fprintf(stderr, "bench_compare: note: no %s sidecars to attribute with\n",
                   suffix + 1);
      continue;
    }
    Result<DiffReport> diffed = DiffDocumentFiles(base_sidecar, cand_sidecar);
    if (!diffed.ok()) {
      std::fprintf(stderr, "bench_compare: note: sidecar diff failed: %s\n",
                   diffed.status().ToString().c_str());
      continue;
    }
    suspects.insert(suspects.end(), diffed->findings.begin(), diffed->findings.end());
  }
  if (suspects.empty()) {
    return;
  }
  std::sort(suspects.begin(), suspects.end(), [](const DiffFinding& a, const DiffFinding& b) {
    const double da = std::abs(a.delta_pct);
    const double db = std::abs(b.delta_pct);
    if (da != db) {
      return da > db;
    }
    if (a.name != b.name) {
      return a.name < b.name;
    }
    return a.metric < b.metric;
  });
  constexpr std::size_t kTopSuspects = 3;
  if (suspects.size() > kTopSuspects) {
    suspects.resize(kTopSuspects);
  }
  for (const DiffFinding& suspect : suspects) {
    std::fprintf(stderr, "bench_compare: SUSPECT %s\n",
                 FormatDiffFindingLine(suspect).c_str());
  }
}

int Run(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CANDIDATE.json\n"
                 "       bench_compare DOC.json\n");
    return 2;
  }
  const std::vector<std::string> paths(argv + 1, argv + argc);
  std::optional<BenchReport> baseline;
  if (paths.size() == 2) {
    baseline = LoadReport(paths[0]);
    if (!baseline.has_value()) {
      return 2;
    }
  }
  const std::optional<BenchReport> candidate = LoadReport(paths.back());
  if (!candidate.has_value()) {
    return 2;
  }
  if (baseline.has_value()) {
    PrintDeltaTable(*baseline, *candidate);
  }

  const GateResult gates =
      EvaluateBenchGates(*candidate, baseline.has_value() ? &*baseline : nullptr);
  for (const std::string& note : gates.notes) {
    std::printf("bench_compare: note: %s\n", note.c_str());
  }
  for (const std::string& gate : gates.passed) {
    std::printf("bench_compare: %s gate passed\n", gate.c_str());
  }
  if (gates.failures.empty()) {
    return 0;
  }
  for (const std::string& failure : gates.failures) {
    std::fprintf(stderr, "bench_compare: %s\n", failure.c_str());
  }
  // Forensics for the failure block: whose builds were compared, and —
  // when both runs shipped sidecars — which spans/windows moved.
  if (baseline.has_value()) {
    PrintProvenance("baseline", paths[0], *baseline);
    PrintProvenance("candidate", paths[1], *candidate);
    PrintSuspects(paths[0], paths[1]);
  } else {
    PrintProvenance("candidate", paths[0], *candidate);
  }
  return 1;
}

}  // namespace
}  // namespace coopfs

int main(int argc, char** argv) { return coopfs::Run(argc, argv); }
