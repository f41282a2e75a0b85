#include "src/obs/bench_gate.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/format.h"

namespace coopfs {
namespace {

enum class Field : std::uint8_t { kOpsPerSec, kP50, kP99, kP999 };

// Where a rule's reference value comes from.
enum class Ref : std::uint8_t {
  kCandidate,   // Rule::ref_series of the candidate, same field.
  kSameSeries,  // Rule::ref_field of the subject series itself.
  kBaseline,    // The subject series of the baseline, same field.
};

enum class Bound : std::uint8_t { kAtLeast, kAtMost, kBelow };

struct Rule;
// A rule that is not one comparison per matched series evaluates itself and
// returns whether it compared anything.
using CheckFn = bool (*)(const Rule& rule, const BenchReport& candidate, GateResult* result);

struct Rule {
  const char* gate;
  const char* series;  // Exact name, or a prefix ending in '*'. Exact for kCandidate.
  Field field;
  Bound bound;
  double factor;
  Ref ref;
  const char* ref_series = nullptr;
  Field ref_field = Field::kOpsPerSec;
  // Set: a measured reference with an unmeasured subject fails the rule.
  // Unset: the comparison is skipped.
  bool required = false;
  const char* why;
  CheckFn check = nullptr;
};

bool CheckSweep(const Rule& rule, const BenchReport& candidate, GateResult* result);

// Widening the sweep may lose at most 10% of the best narrower width. Widths
// past host_threads re-measure the widest real configuration (the sweep
// clamps its workers), so they are held only against a collapse: the
// pre-arena lock convoy measured 0.69x.
constexpr double kSweepTolerance = 0.90;
constexpr double kOversubscribedSweepTolerance = 0.75;

constexpr const char kHierarchy[] = "Figure 1's memory hierarchy";
constexpr const char kLocalFirst[] =
    "Figure 1's memory hierarchy; a storm that reached this level also hits local memory";

constexpr Rule kRules[] = {
    {.gate = "REGRESSION", .series = "replay_*", .field = Field::kOpsPerSec,
     .bound = Bound::kAtLeast, .factor = 0.90, .ref = Ref::kBaseline, .required = true,
     .why = "a replay series may run at most 10% slower than the baseline"},
    {.gate = "SCALING", .series = "parallel_sweep_*", .field = Field::kOpsPerSec,
     .bound = Bound::kAtLeast, .factor = 0.85, .ref = Ref::kCandidate,
     .ref_series = "parallel_sweep_1t", .why = nullptr, .check = CheckSweep},
    {.gate = "LENGTH", .series = "replay_len_nchance_2m", .field = Field::kOpsPerSec,
     .bound = Bound::kAtLeast, .factor = 0.5, .ref = Ref::kCandidate,
     .ref_series = "replay_len_greedy_2m",
     .why = "at 2M events N-Chance may take at most twice Greedy's replay time"},
    {.gate = "LENGTH", .series = "trace_gen_auspex_2m", .field = Field::kOpsPerSec,
     .bound = Bound::kAtLeast, .factor = 0.5, .ref = Ref::kCandidate,
     .ref_series = "trace_gen_auspex_250k",
     .why = "per-event generation cost may at most double from 250k to 2M events"},
    {.gate = "OBS", .series = "replay_bounded_metrics", .field = Field::kOpsPerSec,
     .bound = Bound::kAtLeast, .factor = 0.85, .ref = Ref::kCandidate,
     .ref_series = "replay_serial_nchance",
     .why = "bounded telemetry may cost at most 15% of untraced replay throughput"},
    {.gate = "SERVE", .series = "serve_*", .field = Field::kP50, .bound = Bound::kAtMost,
     .factor = 1.0, .ref = Ref::kSameSeries, .ref_field = Field::kP99,
     .why = "quantiles are monotonic"},
    {.gate = "SERVE", .series = "serve_*", .field = Field::kP99, .bound = Bound::kAtMost,
     .factor = 1.0, .ref = Ref::kSameSeries, .ref_field = Field::kP999,
     .why = "quantiles are monotonic"},
    {.gate = "SERVE", .series = "serve_get_local", .field = Field::kP50, .bound = Bound::kBelow,
     .factor = 1.0, .ref = Ref::kCandidate, .ref_series = "serve_get_remote_client",
     .required = true, .why = kLocalFirst},
    {.gate = "SERVE", .series = "serve_get_local", .field = Field::kP50, .bound = Bound::kBelow,
     .factor = 1.0, .ref = Ref::kCandidate, .ref_series = "serve_get_server_disk",
     .required = true, .why = kLocalFirst},
    {.gate = "SERVE", .series = "serve_get_server_memory", .field = Field::kP50,
     .bound = Bound::kBelow, .factor = 1.0, .ref = Ref::kCandidate,
     .ref_series = "serve_get_server_disk", .why = kHierarchy},
    // Loose: the p99s are mostly the modeled Figure 3 constants, and the
    // wall-clock engine time riding on them varies by host.
    {.gate = "SERVE", .series = "serve_*", .field = Field::kP99, .bound = Bound::kAtMost,
     .factor = 1.5, .ref = Ref::kBaseline,
     .why = "tail latency may grow at most 50% over the baseline"},
};

const char* FieldName(Field field) {
  constexpr const char* kNames[] = {"ops/s", "p50", "p99", "p999"};
  return kNames[static_cast<std::size_t>(field)];
}

const char* BoundOp(Bound bound) {
  constexpr const char* kOps[] = {">=", "<=", "<"};
  return kOps[static_cast<std::size_t>(bound)];
}

std::string FormatValue(Field field, double value) {
  return FormatDouble(value, 1) + (field == Field::kOpsPerSec ? "" : " us");
}

// A latency field exists only when samples stand behind it.
std::optional<double> ValueOf(const BenchSeries* series, Field field) {
  if (series == nullptr) {
    return std::nullopt;
  }
  if (field == Field::kOpsPerSec) {
    return series->ops_per_sec;
  }
  if (!series->latency.has_value() || series->latency->count == 0) {
    return std::nullopt;
  }
  const BenchLatency& latency = *series->latency;
  return field == Field::kP50 ? latency.p50_us
                              : field == Field::kP99 ? latency.p99_us : latency.p999_us;
}

const BenchSeries* Find(const BenchReport& report, std::string_view name) {
  for (const BenchSeries& series : report.series) {
    if (series.name == name) {
      return &series;
    }
  }
  return nullptr;
}

bool Matches(std::string_view pattern, std::string_view name) {
  return pattern.ends_with('*') ? name.starts_with(pattern.substr(0, pattern.size() - 1))
                                : name == pattern;
}

// Checks `value` against `factor` x `ref` under the rule's bound and records
// a failure line if it misses. An unmeasured value always misses, and so does
// any value against an at-least reference that is not positive, which would
// otherwise pass everything.
void Compare(const Rule& rule, double factor, std::string_view why, const std::string& series,
             std::optional<double> value, const std::string& ref_name, double ref,
             GateResult* result) {
  const double limit = factor * ref;
  const bool vacuous = rule.bound == Bound::kAtLeast && ref <= 0.0;
  if (value.has_value() && !vacuous &&
      (rule.bound == Bound::kAtLeast  ? *value >= limit
       : rule.bound == Bound::kAtMost ? *value <= limit
                                      : *value < limit)) {
    return;
  }
  std::string line = std::string(rule.gate) + " " + series + ": " + FieldName(rule.field) + " " +
                     (value.has_value() ? FormatValue(rule.field, *value) : "not measured") +
                     ", needs " + BoundOp(rule.bound) + " " + FormatDouble(factor, 2) + " x " +
                     ref_name + " " + FormatValue(rule.field, ref) + " = " +
                     FormatValue(rule.field, limit);
  if (vacuous) {
    line += ", a reference that is not positive";
  }
  result->failures.push_back(line + " (" + std::string(why) + ")");
}

bool EvaluateRule(const Rule& rule, const BenchReport& candidate, const BenchReport* baseline,
                  GateResult* result) {
  const Field ref_field = rule.ref == Ref::kSameSeries ? rule.ref_field : rule.field;
  bool compared = false;
  const auto evaluate = [&](const std::string& name, const BenchSeries* subject,
                            const BenchSeries* reference) {
    const std::optional<double> value = ValueOf(subject, rule.field);
    const std::optional<double> ref = ValueOf(reference, ref_field);
    if (ref.has_value() && (value.has_value() || rule.required)) {
      const std::string ref_name =
          rule.ref == Ref::kCandidate  ? reference->name + " " + FieldName(ref_field)
          : rule.ref == Ref::kBaseline ? std::string("baseline ") + FieldName(ref_field)
                                       : std::string(FieldName(ref_field));
      Compare(rule, rule.factor, rule.why, name, value, ref_name, *ref, result);
      compared = true;
    } else if (rule.ref == Ref::kCandidate && (value.has_value() || ref.has_value())) {
      result->notes.push_back(std::string(rule.gate) + " " + name + " " + FieldName(rule.field) +
                              " " + BoundOp(rule.bound) + " " + rule.ref_series + " " +
                              FieldName(ref_field) + " skipped: " +
                              (value.has_value() ? rule.ref_series : rule.series) +
                              " not measured");
    }
  };
  switch (rule.ref) {
    case Ref::kCandidate:
      evaluate(rule.series, Find(candidate, rule.series), Find(candidate, rule.ref_series));
      break;
    case Ref::kSameSeries:
      for (const BenchSeries& series : candidate.series) {
        if (Matches(rule.series, series.name)) {
          evaluate(series.name, &series, &series);
        }
      }
      break;
    case Ref::kBaseline:
      if (baseline == nullptr) {
        break;
      }
      for (const BenchSeries& series : baseline->series) {
        if (Matches(rule.series, series.name)) {
          evaluate(series.name, Find(candidate, series.name), &series);
        }
      }
      break;
  }
  return compared;
}

// "parallel_sweep_<T>t" -> T; 0 for any other name.
std::size_t SweepWidth(std::string_view name) {
  constexpr std::string_view kPrefix = "parallel_sweep_";
  if (!name.starts_with(kPrefix) || !name.ends_with('t')) {
    return 0;
  }
  const char* first = name.data() + kPrefix.size();
  const char* last = name.data() + name.size() - 1;
  std::size_t width = 0;
  const auto [end, ec] = std::from_chars(first, last, width);
  return ec == std::errc() && end == last ? width : 0;
}

// The 2t/1t floor scales with the speedup the host allows, and each wider
// width is held against the best narrower one, so the sweep is one function.
// Applies once a 1t series has a wider companion.
bool CheckSweep(const Rule& rule, const BenchReport& candidate, GateResult* result) {
  std::vector<std::pair<std::size_t, const BenchSeries*>> widths;
  for (const BenchSeries& series : candidate.series) {
    if (const std::size_t width = SweepWidth(series.name); width > 0) {
      widths.emplace_back(width, &series);
    }
  }
  std::stable_sort(widths.begin(), widths.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto at = [&widths](std::size_t wanted) -> const BenchSeries* {
    for (const auto& [width, series] : widths) {
      if (width == wanted) {
        return series;
      }
    }
    return nullptr;
  };
  const BenchSeries* serial = at(1);
  if (serial == nullptr || widths.size() < 2) {
    return false;
  }

  const std::uint32_t host = candidate.host_threads;
  const std::string factor = FormatDouble(rule.factor, 2);
  if (host == 0) {
    result->failures.push_back(std::string(rule.gate) +
                               " parallel_sweep_2t: host_threads not recorded, needs it for the" +
                               " >= " + factor +
                               " x min(2, host_threads) x parallel_sweep_1t ops/s floor" +
                               " (re-baseline with the current perf_harness)");
    return true;
  }
  if (host < 2) {
    result->notes.push_back("SCALING host_threads=1: no speedup is attainable, so "
                            "parallel_sweep_2t is held to " + factor + " x 1t");
  }
  Compare(rule, rule.factor * std::min(2.0, static_cast<double>(host)),
          "the 2-thread sweep reaches " + factor + " of the speedup a " + std::to_string(host) +
              "-thread host allows",
          "parallel_sweep_2t", ValueOf(at(2), Field::kOpsPerSec), "parallel_sweep_1t ops/s",
          serial->ops_per_sec, result);

  const BenchSeries* best = serial;
  for (const auto& [width, series] : widths) {
    if (width == 1) {
      continue;
    }
    Compare(rule, width <= host ? kSweepTolerance : kOversubscribedSweepTolerance,
            "non-monotonic scaling: a wider sweep may not lose throughput",
            series->name, series->ops_per_sec, best->name + " ops/s", best->ops_per_sec,
            result);
    if (series->ops_per_sec > best->ops_per_sec) {
      best = series;
    }
  }
  return true;
}

}  // namespace

GateResult EvaluateBenchGates(const BenchReport& candidate, const BenchReport* baseline) {
  GateResult result;
  std::vector<std::string> applied;
  for (const Rule& rule : kRules) {
    const bool compared = rule.check != nullptr ? rule.check(rule, candidate, &result)
                                                : EvaluateRule(rule, candidate, baseline, &result);
    if (compared && std::find(applied.begin(), applied.end(), rule.gate) == applied.end()) {
      applied.emplace_back(rule.gate);
    }
  }
  for (const std::string& gate : applied) {
    const bool failed =
        std::any_of(result.failures.begin(), result.failures.end(),
                    [&gate](const std::string& line) { return line.starts_with(gate + " "); });
    if (!failed) {
      result.passed.push_back(gate);
    }
  }
  return result;
}

}  // namespace coopfs
