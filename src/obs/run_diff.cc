#include "src/obs/run_diff.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <utility>

#include "src/common/format.h"
#include "src/common/version.h"
#include "src/obs/metrics_exporter.h"

namespace coopfs {
namespace {

// Relative deltas against a zero baseline are reported as this cap (in
// percent) with a note, so a span appearing out of nowhere still ranks at
// the top without producing infinities in the document.
constexpr double kDeltaCapPct = 1e6;

// A very noisy series (cv 0.2+) would otherwise demand an impossible delta;
// the noise-scaled significance threshold never exceeds this fraction, so a
// halving of throughput is always reported.
constexpr double kMaxNoiseThreshold = 0.5;

const char* const kKindNames[] = {"bench", "metrics", "timeseries", "profile"};

// Relative change candidate-vs-baseline as a fraction; capped when the
// baseline is zero. `capped` reports whether the cap was applied.
double RelDelta(double baseline, double candidate, bool& capped) {
  capped = false;
  if (baseline == 0.0) {
    if (candidate == 0.0) {
      return 0.0;
    }
    capped = true;
    return candidate > 0.0 ? kDeltaCapPct / 100.0 : -kDeltaCapPct / 100.0;
  }
  return (candidate - baseline) / std::abs(baseline);
}

// Applies the significance test (|relative delta| must exceed `threshold`,
// a fraction) and appends a finding when it trips.
void MaybeAddFinding(DiffReport& report, const char* kind, std::string name,
                     const char* metric, double baseline, double candidate,
                     double threshold, bool higher_is_worse = true, double noise_cv = 0.0,
                     std::string note = {}) {
  bool capped = false;
  const double rel = RelDelta(baseline, candidate, capped);
  if (std::abs(rel) <= threshold) {
    return;
  }
  DiffFinding finding;
  finding.kind = kind;
  finding.name = std::move(name);
  finding.metric = metric;
  finding.baseline = baseline;
  finding.candidate = candidate;
  finding.delta_pct = std::clamp(rel * 100.0, -kDeltaCapPct, kDeltaCapPct);
  finding.regression = higher_is_worse ? candidate > baseline : candidate < baseline;
  finding.noise_cv = noise_cv;
  finding.note = std::move(note);
  if (capped) {
    finding.note = finding.note.empty() ? "baseline is zero"
                                        : finding.note + "; baseline is zero";
  }
  report.findings.push_back(std::move(finding));
}

// Ranks findings (|delta| desc, name asc, metric asc) and truncates.
void FinalizeReport(DiffReport& report) {
  std::sort(report.findings.begin(), report.findings.end(),
            [](const DiffFinding& a, const DiffFinding& b) {
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
  if (report.options.max_findings > 0 &&
      report.findings.size() > report.options.max_findings) {
    report.findings.resize(report.options.max_findings);
  }
}

void WriteSideJson(JsonWriter& json, const char* key, const DiffSide& side) {
  json.Key(key).BeginObject();
  json.Key("label").Value(side.label);
  json.Key("git_sha").Value(side.git_sha);
  json.Key("build_type").Value(side.build_type);
  json.Key("host_threads").Value(static_cast<std::uint64_t>(side.host_threads));
  json.EndObject();
}

// First JSON line of a JSONL document (for schema sniffing when the file is
// not one complete JSON value).
std::string_view FirstLine(std::string_view text) {
  const std::size_t newline = text.find('\n');
  return newline == std::string_view::npos ? text : text.substr(0, newline);
}

// What document type a file holds, from its schema tag. Single-JSON types
// parse whole; JSONL types are identified by their header line.
Result<std::string> SniffSchema(const std::string& path, std::string_view text) {
  Result<JsonValue> whole = ParseJson(text);
  const JsonValue* root = nullptr;
  Result<JsonValue> header = Status::Internal("unset");
  if (whole.ok() && whole->is_object()) {
    root = &*whole;
  } else {
    header = ParseJson(FirstLine(text));
    if (header.ok() && header->is_object()) {
      root = &*header;
    }
  }
  if (root == nullptr) {
    return Status::DataLoss("'" + path + "' is not a JSON or JSONL coopfs document");
  }
  const JsonValue* schema = root->FindString("schema");
  if (schema == nullptr) {
    return Status::DataLoss("'" + path + "' has no 'schema' tag");
  }
  return schema->AsString();
}

}  // namespace

const char* DiffDocKindName(DiffDocKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool DiffDocKindFromName(std::string_view name, DiffDocKind& kind) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) {
      kind = static_cast<DiffDocKind>(i);
      return true;
    }
  }
  return false;
}

std::string DiffReport::ToJson(int indent) const {
  JsonWriter json(indent);
  json.BeginObject();
  json.Key("schema").Value(kDiffSchema);
  json.Key("coopfs_version").Value(kVersionString);
  json.Key("kind").Value(DiffDocKindName(kind));
  WriteSideJson(json, "baseline", baseline);
  WriteSideJson(json, "candidate", candidate);
  json.Key("options").BeginObject();
  json.Key("min_rel_delta").Value(options.min_rel_delta);
  json.Key("noise_sigmas").Value(options.noise_sigmas);
  json.Key("rss_rel_delta").Value(options.rss_rel_delta);
  json.Key("profile_share_floor").Value(options.profile_share_floor);
  json.Key("max_findings").Value(static_cast<std::uint64_t>(options.max_findings));
  json.EndObject();
  json.Key("compared").Value(compared);
  json.Key("unmatched_baseline").Value(unmatched_baseline);
  json.Key("unmatched_candidate").Value(unmatched_candidate);
  json.Key("findings").BeginArray();
  for (const DiffFinding& finding : findings) {
    json.BeginObject();
    json.Key("kind").Value(finding.kind);
    json.Key("name").Value(finding.name);
    json.Key("metric").Value(finding.metric);
    json.Key("baseline").Value(finding.baseline);
    json.Key("candidate").Value(finding.candidate);
    json.Key("delta_pct").Value(finding.delta_pct);
    json.Key("regression").Value(finding.regression);
    json.Key("noise_cv").Value(finding.noise_cv);
    json.Key("note").Value(finding.note);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status DiffReport::WriteFile(const std::string& path) const {
  const std::string document = ToJson();
  COOPFS_RETURN_IF_ERROR(ValidateDiffDocument(document));
  return WriteTextFile(path, document);
}

Status ValidateDiffDocument(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  std::string schema;
  std::string kind;
  COOPFS_RETURN_IF_ERROR(ReadMembers(root, "schema", &schema, "kind", &kind));
  if (schema != kDiffSchema) {
    return Status::DataLoss("unsupported diff schema '" + schema + "'");
  }
  if (DiffDocKind parsed_kind; !DiffDocKindFromName(kind, parsed_kind)) {
    return Status::DataLoss("diff document has unknown 'kind' '" + kind + "'");
  }
  for (const char* key : {"baseline", "candidate"}) {
    const JsonValue* side = root.FindObject(key);
    if (side == nullptr) {
      return Status::DataLoss(std::string("diff document missing object '") + key + "'");
    }
    const std::string where = std::string("diff document '") + key + "'";
    COOPFS_RETURN_IF_ERROR(
        RequireMembers<std::string>(*side, where, {"label", "git_sha", "build_type"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint32_t>(*side, where, {"host_threads"}));
  }
  if (root.FindObject("options") == nullptr) {
    return Status::DataLoss("diff document missing object 'options'");
  }
  COOPFS_RETURN_IF_ERROR(RequireMembers<std::uint64_t>(
      root, "diff document", {"compared", "unmatched_baseline", "unmatched_candidate"}));
  const JsonValue* findings = root.FindArray("findings");
  if (findings == nullptr) {
    return Status::DataLoss("diff document missing 'findings' array");
  }
  for (std::size_t i = 0; i < findings->items().size(); ++i) {
    const JsonValue& entry = findings->items()[i];
    const std::string where = "findings[" + std::to_string(i) + "]";
    COOPFS_RETURN_IF_ERROR(
        RequireMembers<std::string>(entry, where, {"kind", "name", "metric", "note"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<double>(
        entry, where, {"baseline", "candidate", "delta_pct", "noise_cv"}));
    COOPFS_RETURN_IF_ERROR(RequireMembers<bool>(entry, where, {"regression"}));
  }
  return Status::Ok();
}

DiffReport DiffBenchDocuments(const BenchReport& baseline, const BenchReport& candidate,
                              const DiffOptions& options) {
  DiffReport report;
  report.kind = DiffDocKind::kBench;
  report.options = options;
  report.baseline.git_sha = baseline.git_sha.empty() ? "unknown" : baseline.git_sha;
  report.baseline.build_type = baseline.build_type.empty() ? "unknown" : baseline.build_type;
  report.baseline.host_threads = baseline.host_threads;
  report.candidate.git_sha = candidate.git_sha.empty() ? "unknown" : candidate.git_sha;
  report.candidate.build_type = candidate.build_type.empty() ? "unknown" : candidate.build_type;
  report.candidate.host_threads = candidate.host_threads;

  std::map<std::string_view, const BenchSeries*> by_name;
  for (const BenchSeries& series : candidate.series) {
    by_name.emplace(series.name, &series);
  }
  for (const BenchSeries& base : baseline.series) {
    auto it = by_name.find(base.name);
    if (it == by_name.end()) {
      ++report.unmatched_baseline;
      continue;
    }
    const BenchSeries& cand = *it->second;
    by_name.erase(it);
    ++report.compared;

    // Throughput: the noise-aware test. The floor scales with the worse of
    // the two recorded spreads so a wobbly series needs a proportionally
    // larger move to register, clamped so a catastrophic drop always does.
    const double cv = std::max(base.cv, cand.cv);
    const double threshold = std::clamp(options.noise_sigmas * cv,
                                        options.min_rel_delta, kMaxNoiseThreshold);
    MaybeAddFinding(report, "bench_series", base.name, "ops_per_sec", base.ops_per_sec,
                    cand.ops_per_sec, threshold, /*higher_is_worse=*/false, cv);

    // Peak RSS: allocator- and page-placement-dependent, so a looser floor;
    // zero means the platform could not measure it, so nothing to compare.
    if (base.peak_rss_bytes > 0 && cand.peak_rss_bytes > 0) {
      MaybeAddFinding(report, "bench_series", base.name, "peak_rss_bytes",
                      static_cast<double>(base.peak_rss_bytes),
                      static_cast<double>(cand.peak_rss_bytes), options.rss_rel_delta);
    }
  }
  report.unmatched_candidate = by_name.size();
  FinalizeReport(report);
  return report;
}

DiffReport DiffProfileDocuments(const std::vector<Profiler::Node>& baseline,
                                const std::vector<Profiler::Node>& candidate,
                                const DiffOptions& options) {
  DiffReport report;
  report.kind = DiffDocKind::kProfile;
  report.options = options;

  const std::vector<ProfileFlatRow> base_rows = FlattenProfileBySelfTime(baseline);
  const std::vector<ProfileFlatRow> cand_rows = FlattenProfileBySelfTime(candidate);
  double base_total = 0.0;
  double cand_total = 0.0;
  for (const ProfileFlatRow& row : base_rows) {
    base_total += static_cast<double>(row.self_ns);
  }
  for (const ProfileFlatRow& row : cand_rows) {
    cand_total += static_cast<double>(row.self_ns);
  }
  std::map<std::string_view, const ProfileFlatRow*> by_name;
  for (const ProfileFlatRow& row : cand_rows) {
    by_name.emplace(row.name, &row);
  }
  for (const ProfileFlatRow& base : base_rows) {
    auto it = by_name.find(base.name);
    if (it == by_name.end()) {
      ++report.unmatched_baseline;
      continue;
    }
    const ProfileFlatRow& cand = *it->second;
    by_name.erase(it);
    ++report.compared;

    // Wall times are non-deterministic, so compare each span's *share* of
    // total self time, and require the share to move by an absolute floor on
    // top of the relative one — a 10 ns span tripling is not a finding.
    const double base_share =
        base_total > 0.0 ? static_cast<double>(base.self_ns) / base_total : 0.0;
    const double cand_share =
        cand_total > 0.0 ? static_cast<double>(cand.self_ns) / cand_total : 0.0;
    if (std::abs(cand_share - base_share) >= options.profile_share_floor) {
      MaybeAddFinding(report, "profile_span", base.name, "self_share", base_share,
                      cand_share, options.min_rel_delta);
    }

    // Span counts are deterministic for a fixed workload; a mismatch means
    // the code took a different path, which is attribution gold.
    MaybeAddFinding(report, "profile_span", base.name, "count",
                    static_cast<double>(base.count), static_cast<double>(cand.count),
                    options.min_rel_delta);
  }
  report.unmatched_candidate = by_name.size();
  FinalizeReport(report);
  return report;
}

DiffReport DiffTimeseriesDocuments(const TimeseriesDocument& baseline,
                                   const TimeseriesDocument& candidate,
                                   const DiffOptions& options) {
  DiffReport report;
  report.kind = DiffDocKind::kTimeseries;
  report.options = options;

  const std::size_t aligned_runs = std::min(baseline.runs.size(), candidate.runs.size());
  for (std::size_t r = aligned_runs; r < baseline.runs.size(); ++r) {
    report.unmatched_baseline += baseline.runs[r].samples.size();
  }
  for (std::size_t r = aligned_runs; r < candidate.runs.size(); ++r) {
    report.unmatched_candidate += candidate.runs[r].samples.size();
  }
  for (std::size_t r = 0; r < aligned_runs; ++r) {
    const SnapshotRun& base_run = baseline.runs[r];
    const SnapshotRun& cand_run = candidate.runs[r];
    std::string note;
    if (base_run.policy != cand_run.policy) {
      note = "policy " + base_run.policy + " vs " + cand_run.policy;
    } else if (!base_run.policy.empty()) {
      note = "policy " + base_run.policy;
    }
    const std::size_t aligned = std::min(base_run.samples.size(), cand_run.samples.size());
    report.unmatched_baseline += base_run.samples.size() - aligned;
    report.unmatched_candidate += cand_run.samples.size() - aligned;
    for (std::size_t s = 0; s < aligned; ++s) {
      const StateSample& base = base_run.samples[s];
      const StateSample& cand = cand_run.samples[s];
      ++report.compared;
      const std::string name = "run " + std::to_string(r) + " window " + std::to_string(s);

      // Window metrics are fully deterministic, so the relative floor alone
      // decides significance.
      MaybeAddFinding(report, "timeseries_window", name, "counted_reads",
                      static_cast<double>(base.CountedReads()),
                      static_cast<double>(cand.CountedReads()), options.min_rel_delta,
                      /*higher_is_worse=*/false, /*noise_cv=*/0.0, note);
      if (base.CountedReads() > 0 && cand.CountedReads() > 0) {
        MaybeAddFinding(report, "timeseries_window", name, "avg_read_time_us",
                        base.CountedTimeUs() / static_cast<double>(base.CountedReads()),
                        cand.CountedTimeUs() / static_cast<double>(cand.CountedReads()),
                        options.min_rel_delta, /*higher_is_worse=*/true,
                        /*noise_cv=*/0.0, note);
      }
      MaybeAddFinding(
          report, "timeseries_window", name, "disk_reads",
          static_cast<double>(
              base.level_reads[static_cast<std::size_t>(CacheLevel::kServerDisk)]),
          static_cast<double>(
              cand.level_reads[static_cast<std::size_t>(CacheLevel::kServerDisk)]),
          options.min_rel_delta, /*higher_is_worse=*/true, /*noise_cv=*/0.0, note);
    }
  }
  FinalizeReport(report);
  return report;
}

DiffReport DiffMetricsDocuments(const JsonValue& baseline, const JsonValue& candidate,
                                const DiffOptions& options) {
  DiffReport report;
  report.kind = DiffDocKind::kMetrics;
  report.options = options;

  const JsonValue* base_results = baseline.FindArray("results");
  const JsonValue* cand_results = candidate.FindArray("results");
  if (base_results == nullptr || cand_results == nullptr) {
    return report;  // Callers validate first; nothing to align.
  }
  const std::size_t aligned =
      std::min(base_results->items().size(), cand_results->items().size());
  report.unmatched_baseline = base_results->items().size() - aligned;
  report.unmatched_candidate = cand_results->items().size() - aligned;
  for (std::size_t i = 0; i < aligned; ++i) {
    const JsonValue& base = base_results->items()[i];
    const JsonValue& cand = cand_results->items()[i];
    ++report.compared;
    const std::string name = "result " + std::to_string(i);
    const std::string base_policy = base.FindString("policy")->AsString();
    const std::string cand_policy = cand.FindString("policy")->AsString();
    const std::string note = base_policy == cand_policy
                                 ? "policy " + base_policy
                                 : "policy " + base_policy + " vs " + cand_policy;

    MaybeAddFinding(report, "metrics_result", name, "avg_read_time_us",
                    base.FindNumber("avg_read_time_us")->AsDouble(),
                    cand.FindNumber("avg_read_time_us")->AsDouble(), options.min_rel_delta,
                    /*higher_is_worse=*/true, /*noise_cv=*/0.0, note);
    MaybeAddFinding(report, "metrics_result", name, "reads",
                    base.FindNumber("reads")->AsDouble(),
                    cand.FindNumber("reads")->AsDouble(), options.min_rel_delta,
                    /*higher_is_worse=*/false, /*noise_cv=*/0.0, note);
    const JsonValue* base_disk = base.FindObject("levels")->FindObject("server_disk");
    const JsonValue* cand_disk = cand.FindObject("levels")->FindObject("server_disk");
    MaybeAddFinding(report, "metrics_result", name, "disk_fraction",
                    base_disk->FindNumber("fraction")->AsDouble(),
                    cand_disk->FindNumber("fraction")->AsDouble(), options.min_rel_delta,
                    /*higher_is_worse=*/true, /*noise_cv=*/0.0, note);
    MaybeAddFinding(report, "metrics_result", name, "server_load_units",
                    base.FindObject("server_load")->FindNumber("total_units")->AsDouble(),
                    cand.FindObject("server_load")->FindNumber("total_units")->AsDouble(),
                    options.min_rel_delta, /*higher_is_worse=*/true, /*noise_cv=*/0.0,
                    note);
  }
  FinalizeReport(report);
  return report;
}

Result<DiffReport> DiffDocumentFiles(const std::string& baseline_path,
                                     const std::string& candidate_path,
                                     const DiffOptions& options) {
  Result<std::string> base_text = ReadTextFile(baseline_path);
  if (!base_text.ok()) {
    return base_text.status();
  }
  Result<std::string> cand_text = ReadTextFile(candidate_path);
  if (!cand_text.ok()) {
    return cand_text.status();
  }
  Result<std::string> base_schema = SniffSchema(baseline_path, *base_text);
  if (!base_schema.ok()) {
    return base_schema.status();
  }
  Result<std::string> cand_schema = SniffSchema(candidate_path, *cand_text);
  if (!cand_schema.ok()) {
    return cand_schema.status();
  }
  if (*base_schema != *cand_schema) {
    return Status::InvalidArgument("document types differ: '" + baseline_path + "' is " +
                                   *base_schema + ", '" + candidate_path + "' is " +
                                   *cand_schema);
  }

  DiffReport report;
  if (*base_schema == kBenchSchema) {
    Result<BenchReport> base = ParseBenchDocument(*base_text);
    if (!base.ok()) {
      return Status(base.status().code(), baseline_path + ": " + base.status().message());
    }
    Result<BenchReport> cand = ParseBenchDocument(*cand_text);
    if (!cand.ok()) {
      return Status(cand.status().code(), candidate_path + ": " + cand.status().message());
    }
    report = DiffBenchDocuments(*base, *cand, options);
  } else if (*base_schema == kMetricsSchema) {
    if (Status valid = ValidateMetricsDocument(*base_text); !valid.ok()) {
      return Status(valid.code(), baseline_path + ": " + valid.message());
    }
    if (Status valid = ValidateMetricsDocument(*cand_text); !valid.ok()) {
      return Status(valid.code(), candidate_path + ": " + valid.message());
    }
    Result<JsonValue> base = ParseJson(*base_text);
    Result<JsonValue> cand = ParseJson(*cand_text);
    if (!base.ok() || !cand.ok()) {
      return Status::DataLoss("metrics document re-parse failed");
    }
    report = DiffMetricsDocuments(*base, *cand, options);
  } else if (*base_schema == kProfileSchema) {
    Result<std::vector<Profiler::Node>> base = ParseProfileDocument(*base_text);
    if (!base.ok()) {
      return Status(base.status().code(), baseline_path + ": " + base.status().message());
    }
    Result<std::vector<Profiler::Node>> cand = ParseProfileDocument(*cand_text);
    if (!cand.ok()) {
      return Status(cand.status().code(), candidate_path + ": " + cand.status().message());
    }
    report = DiffProfileDocuments(*base, *cand, options);
  } else if (*base_schema == kTimeseriesSchema) {
    Result<TimeseriesDocument> base = ParseTimeseriesJsonl(*base_text);
    if (!base.ok()) {
      return Status(base.status().code(), baseline_path + ": " + base.status().message());
    }
    Result<TimeseriesDocument> cand = ParseTimeseriesJsonl(*cand_text);
    if (!cand.ok()) {
      return Status(cand.status().code(), candidate_path + ": " + cand.status().message());
    }
    report = DiffTimeseriesDocuments(*base, *cand, options);
  } else {
    return Status::InvalidArgument(
        "schema '" + *base_schema +
        "' has no differ (diff the bench/metrics/timeseries/profile documents derived "
        "from it instead)");
  }
  report.baseline.label = baseline_path;
  report.candidate.label = candidate_path;
  return report;
}

std::string FormatDiffValue(std::string_view metric, double value) {
  if (metric == "ops_per_sec") {
    if (value >= 1e6) {
      return FormatDouble(value / 1e6, 2) + " M/s";
    }
    if (value >= 1e3) {
      return FormatDouble(value / 1e3, 2) + " k/s";
    }
    return FormatDouble(value, 2) + "/s";
  }
  if (metric == "self_share" || metric == "disk_fraction") {
    return FormatPercent(value);
  }
  if (metric == "peak_rss_bytes") {
    return FormatBytes(static_cast<std::uint64_t>(value));
  }
  if (metric == "avg_read_time_us") {
    return FormatMicros(value);
  }
  if (metric == "reads" || metric == "counted_reads" || metric == "disk_reads" ||
      metric == "count" || metric == "server_load_units") {
    return FormatDouble(value, 0);
  }
  return FormatDouble(value, 3);
}

std::string FormatDiffFindingLine(const DiffFinding& finding) {
  std::string label = finding.kind;
  if (label == "bench_series") {
    label = "bench series";
  } else if (label == "profile_span") {
    label = "profile span";
  } else if (label == "timeseries_window") {
    label = "timeseries";
  } else if (label == "metrics_result") {
    label = "metrics";
  }
  std::string line = label + " '" + finding.name + "': " + finding.metric + " " +
                     FormatDiffValue(finding.metric, finding.baseline) + " -> " +
                     FormatDiffValue(finding.metric, finding.candidate) + " (" +
                     (finding.delta_pct >= 0.0 ? "+" : "") +
                     FormatDouble(finding.delta_pct, 1) + "%";
  if (finding.noise_cv > 0.0) {
    line += ", cv " + FormatPercent(finding.noise_cv);
  }
  line += ")";
  if (!finding.note.empty()) {
    line += " [" + finding.note + "]";
  }
  return line;
}

}  // namespace coopfs
