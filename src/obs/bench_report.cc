#include "src/obs/bench_report.h"

#include <limits>

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

// The parser casts count fields to unsigned integers, so each must be an
// integer token in [0, max] when present: "-1", "1e11" or "0.5" would make
// that cast undefined or silently wrong.
Status CheckCount(const JsonValue& object, const char* field, std::uint64_t max,
                  const std::string& where) {
  const JsonValue* value = object.Find(field);
  if (value == nullptr || (value->IsIntegral() && value->AsInt() >= 0 &&
                           static_cast<std::uint64_t>(value->AsInt()) <= max)) {
    return Status::Ok();
  }
  return Status::DataLoss(where + " field '" + field + "' is not an integer in [0, " +
                          std::to_string(max) + "]");
}

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

}  // namespace

Status ValidateBenchDocument(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::DataLoss("bench document root is not an object");
  }
  const JsonValue* schema = root.FindString("schema");
  if (schema == nullptr) {
    return Status::DataLoss("bench document missing 'schema'");
  }
  if (schema->AsString() != kBenchSchema) {
    return Status::DataLoss("unsupported bench schema '" + schema->AsString() + "'");
  }
  if (root.FindString("suite") == nullptr) {
    return Status::DataLoss("bench document missing 'suite'");
  }
  COOPFS_RETURN_IF_ERROR(CheckCount(root, "host_threads", kMaxU32, "bench document"));
  const JsonValue* series = root.FindArray("series");
  if (series == nullptr) {
    return Status::DataLoss("bench document missing 'series' array");
  }
  for (std::size_t i = 0; i < series->items().size(); ++i) {
    const JsonValue& entry = series->items()[i];
    const std::string where = "series[" + std::to_string(i) + "]";
    if (!entry.is_object()) {
      return Status::DataLoss(where + " is not an object");
    }
    if (entry.FindString("name") == nullptr || entry.FindString("unit") == nullptr) {
      return Status::DataLoss(where + " missing 'name'/'unit'");
    }
    for (const char* field : {"ops_per_sec", "wall_s", "items", "peak_rss_bytes"}) {
      if (entry.FindNumber(field) == nullptr) {
        return Status::DataLoss(where + " missing numeric '" + field + "'");
      }
    }
    COOPFS_RETURN_IF_ERROR(CheckCount(entry, "items", kMaxU64, where));
    COOPFS_RETURN_IF_ERROR(CheckCount(entry, "peak_rss_bytes", kMaxU64, where));
    COOPFS_RETURN_IF_ERROR(CheckCount(entry, "iterations", kMaxU32, where));
    // Spread fields are additive: absent is fine (pre-spread documents),
    // present-but-mistyped is not.
    for (const char* field :
         {"iterations", "ops_per_sec_min", "ops_per_sec_median", "ops_per_sec_max", "cv"}) {
      const JsonValue* value = entry.Find(field);
      if (value != nullptr && !value->is_number()) {
        return Status::DataLoss(where + " field '" + field + "' is not a number");
      }
    }
    // The latency object is additive like the spread fields: absent is fine
    // (throughput-only series), present demands the full numeric shape.
    if (const JsonValue* latency = entry.Find("latency"); latency != nullptr) {
      if (!latency->is_object()) {
        return Status::DataLoss(where + " field 'latency' is not an object");
      }
      for (const char* field : {"count", "p50_us", "p90_us", "p95_us", "p99_us",
                                "p999_us", "mean_us", "min_us", "max_us"}) {
        if (latency->FindNumber(field) == nullptr) {
          return Status::DataLoss(where + " latency missing numeric '" + field + "'");
        }
      }
      COOPFS_RETURN_IF_ERROR(CheckCount(*latency, "count", kMaxU64, where + " latency"));
    }
  }
  return Status::Ok();
}

Result<BenchReport> ParseBenchDocument(std::string_view json) {
  COOPFS_RETURN_IF_ERROR(ValidateBenchDocument(json));
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  BenchReport report;
  report.suite = root.FindString("suite")->AsString();
  if (const JsonValue* host = root.FindNumber("host_threads"); host != nullptr) {
    report.host_threads = static_cast<std::uint32_t>(host->AsInt());
  }
  const JsonValue* sha = root.FindString("git_sha");
  report.git_sha = sha != nullptr ? sha->AsString() : "unknown";
  const JsonValue* build = root.FindString("build_type");
  report.build_type = build != nullptr ? build->AsString() : "unknown";
  for (const JsonValue& entry : root.FindArray("series")->items()) {
    BenchSeries series;
    series.name = entry.FindString("name")->AsString();
    series.unit = entry.FindString("unit")->AsString();
    series.ops_per_sec = entry.FindNumber("ops_per_sec")->AsDouble();
    series.wall_seconds = entry.FindNumber("wall_s")->AsDouble();
    series.items = static_cast<std::uint64_t>(entry.FindNumber("items")->AsInt());
    series.peak_rss_bytes =
        static_cast<std::uint64_t>(entry.FindNumber("peak_rss_bytes")->AsInt());
    if (const JsonValue* iters = entry.FindNumber("iterations"); iters != nullptr) {
      series.iterations = static_cast<std::uint32_t>(iters->AsInt());
    }
    series.ops_per_sec_min = series.ops_per_sec;
    series.ops_per_sec_median = series.ops_per_sec;
    series.ops_per_sec_max = series.ops_per_sec;
    if (const JsonValue* v = entry.FindNumber("ops_per_sec_min"); v != nullptr) {
      series.ops_per_sec_min = v->AsDouble();
    }
    if (const JsonValue* v = entry.FindNumber("ops_per_sec_median"); v != nullptr) {
      series.ops_per_sec_median = v->AsDouble();
    }
    if (const JsonValue* v = entry.FindNumber("ops_per_sec_max"); v != nullptr) {
      series.ops_per_sec_max = v->AsDouble();
    }
    if (const JsonValue* v = entry.FindNumber("cv"); v != nullptr) {
      series.cv = v->AsDouble();
    }
    if (const JsonValue* latency = entry.Find("latency"); latency != nullptr) {
      BenchLatency lat;
      lat.count = static_cast<std::uint64_t>(latency->FindNumber("count")->AsInt());
      lat.p50_us = latency->FindNumber("p50_us")->AsDouble();
      lat.p90_us = latency->FindNumber("p90_us")->AsDouble();
      lat.p95_us = latency->FindNumber("p95_us")->AsDouble();
      lat.p99_us = latency->FindNumber("p99_us")->AsDouble();
      lat.p999_us = latency->FindNumber("p999_us")->AsDouble();
      lat.mean_us = latency->FindNumber("mean_us")->AsDouble();
      lat.min_us = latency->FindNumber("min_us")->AsDouble();
      lat.max_us = latency->FindNumber("max_us")->AsDouble();
      series.latency = lat;
    }
    report.series.push_back(std::move(series));
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
