#include "src/obs/bench_report.h"

#include "src/common/build_info.h"
#include "src/common/json.h"
#include "src/common/version.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <cstdio>
#include <cstring>
#endif

namespace coopfs {

std::string BenchReport::ToJson(int indent) const {
  JsonWriter json(indent);
  json.BeginObject();
  json.Key("schema").Value(kBenchSchema);
  json.Key("coopfs_version").Value(kVersionString);
  json.Key("suite").Value(suite);
  json.Key("host_threads").Value(static_cast<std::uint64_t>(host_threads));
  json.Key("git_sha").Value(git_sha.empty() ? BuildGitSha() : git_sha.c_str());
  json.Key("build_type").Value(build_type.empty() ? BuildType() : build_type.c_str());
  json.Key("series").BeginArray();
  for (const BenchSeries& s : series) {
    json.BeginObject();
    json.Key("name").Value(s.name);
    json.Key("unit").Value(s.unit);
    json.Key("ops_per_sec").Value(s.ops_per_sec);
    json.Key("wall_s").Value(s.wall_seconds);
    json.Key("items").Value(s.items);
    json.Key("peak_rss_bytes").Value(s.peak_rss_bytes);
    json.Key("iterations").Value(static_cast<std::uint64_t>(s.iterations));
    // The degenerate spread of an unmeasured series is ops_per_sec itself,
    // so older in-memory reports round-trip without callers filling it in.
    json.Key("ops_per_sec_min")
        .Value(s.iterations > 1 ? s.ops_per_sec_min : s.ops_per_sec);
    json.Key("ops_per_sec_median")
        .Value(s.iterations > 1 ? s.ops_per_sec_median : s.ops_per_sec);
    json.Key("ops_per_sec_max")
        .Value(s.iterations > 1 ? s.ops_per_sec_max : s.ops_per_sec);
    json.Key("cv").Value(s.iterations > 1 ? s.cv : 0.0);
    if (s.latency.has_value()) {
      const BenchLatency& lat = *s.latency;
      json.Key("latency").BeginObject();
      json.Key("count").Value(lat.count);
      json.Key("p50_us").Value(lat.p50_us);
      json.Key("p90_us").Value(lat.p90_us);
      json.Key("p95_us").Value(lat.p95_us);
      json.Key("p99_us").Value(lat.p99_us);
      json.Key("p999_us").Value(lat.p999_us);
      json.Key("mean_us").Value(lat.mean_us);
      json.Key("min_us").Value(lat.min_us);
      json.Key("max_us").Value(lat.max_us);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status BenchReport::WriteFile(const std::string& path) const {
  const std::string document = ToJson();
  COOPFS_RETURN_IF_ERROR(ValidateBenchDocument(document));
  return WriteTextFile(path, document);
}

namespace {

Status ParseSeries(const JsonValue& entry, BenchSeries& series) {
  COOPFS_RETURN_IF_ERROR(ReadMembers(entry, "name", &series.name, "unit", &series.unit,
                                     "ops_per_sec", &series.ops_per_sec, "wall_s",
                                     &series.wall_seconds, "items", &series.items,
                                     "peak_rss_bytes", &series.peak_rss_bytes));
  // The spread fields and the latency object are additive: absent is fine
  // (pre-spread documents, throughput-only series), present must be whole.
  series.ops_per_sec_min = series.ops_per_sec;
  series.ops_per_sec_median = series.ops_per_sec;
  series.ops_per_sec_max = series.ops_per_sec;
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(entry, "iterations", &series.iterations));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(entry, "ops_per_sec_min", &series.ops_per_sec_min));
  COOPFS_RETURN_IF_ERROR(
      ReadOptionalMember(entry, "ops_per_sec_median", &series.ops_per_sec_median));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(entry, "ops_per_sec_max", &series.ops_per_sec_max));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(entry, "cv", &series.cv));
  if (const JsonValue* latency = entry.Find("latency"); latency != nullptr) {
    if (!latency->is_object()) {
      return Status::DataLoss("'latency' is not an object");
    }
    BenchLatency& lat = series.latency.emplace();
    COOPFS_RETURN_IF_ERROR(ReadMembers(
        *latency, "count", &lat.count, "p50_us", &lat.p50_us, "p90_us", &lat.p90_us, "p95_us",
        &lat.p95_us, "p99_us", &lat.p99_us, "p999_us", &lat.p999_us, "mean_us", &lat.mean_us,
        "min_us", &lat.min_us, "max_us", &lat.max_us));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateBenchDocument(std::string_view json) { return ParseBenchDocument(json).status(); }

Result<BenchReport> ParseBenchDocument(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  BenchReport report;
  std::string schema;
  COOPFS_RETURN_IF_ERROR(ReadMembers(root, "schema", &schema, "suite", &report.suite));
  if (schema != kBenchSchema) {
    return Status::DataLoss("unsupported bench schema '" + schema + "'");
  }
  // Provenance from before the fields existed reads as "unknown".
  report.git_sha = "unknown";
  report.build_type = "unknown";
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(root, "git_sha", &report.git_sha));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(root, "build_type", &report.build_type));
  COOPFS_RETURN_IF_ERROR(ReadOptionalMember(root, "host_threads", &report.host_threads));
  const JsonValue* series = root.FindArray("series");
  if (series == nullptr) {
    return Status::DataLoss("bench document missing 'series' array");
  }
  report.series.resize(series->size());
  for (std::size_t i = 0; i < series->size(); ++i) {
    if (Status parsed_series = ParseSeries(series->items()[i], report.series[i]);
        !parsed_series.ok()) {
      return Status::DataLoss("series[" + std::to_string(i) + "]: " + parsed_series.message());
    }
  }
  return report;
}

std::uint64_t CurrentPeakRssBytes() {
#if defined(__linux__)
  // Prefer VmHWM over getrusage: writing "5" to /proc/self/clear_refs (see
  // TryResetPeakRssCounter) rewinds VmHWM but not ru_maxrss, and the
  // rewindable counter is what gives per-series attribution.
  if (std::FILE* status = std::fopen("/proc/self/status", "re"); status != nullptr) {
    char line[256];
    std::uint64_t hwm_kib = 0;
    bool found = false;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB",
                      reinterpret_cast<unsigned long long*>(&hwm_kib)) == 1) {
        found = true;
        break;
      }
    }
    std::fclose(status);
    if (found) {
      return hwm_kib * 1024;
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // Already bytes.
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB.
#endif
#else
  return 0;
#endif
}

bool TryResetPeakRssCounter() {
#if defined(__linux__)
  // "5" resets the peak-RSS high-watermark (VmHWM) for the calling process.
  std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "we");
  if (clear_refs == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", clear_refs) >= 0;
  return std::fclose(clear_refs) == 0 && ok;
#else
  return false;
#endif
}

}  // namespace coopfs
