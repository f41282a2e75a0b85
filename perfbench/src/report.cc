#include <algorithm>
#include <cstdio>
#include <numeric>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "perfbench/src/perfbench.h"
#include "src/common/json.h"
#include "src/obs/bench_report.h"

namespace perfbench {

namespace {

// Failure messages kept in the document; the count is always exact.
constexpr std::size_t kMaxFailureMessages = 16;

}  // namespace

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) {
    return;
  }
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  if (failures_.size() < kMaxFailureMessages) {
    failures_.push_back(what);
  }
}

void Report::AddReplayOutputs(const std::string& prefix,
                              const coopfs::SimulationResult& result) {
  static constexpr const char* kLevelKeys[] = {"local", "remote", "server", "disk"};
  for (std::size_t level = 0; level < coopfs::kNumCacheLevels; ++level) {
    Output(prefix + ".reads_" + kLevelKeys[level],
           static_cast<double>(result.level_counts.Get(level)));
  }
  Output(prefix + ".avg_read_us", result.AverageReadTime());
  Output(prefix + ".server_load_units", static_cast<double>(result.server_load.TotalUnits()));
  const coopfs::SimCounters& counters = result.counters;
  Output(prefix + ".events_replayed", static_cast<double>(counters.events_replayed));
  Output(prefix + ".remote_forwards", static_cast<double>(counters.remote_forwards));
  Output(prefix + ".recirculations", static_cast<double>(counters.recirculations));
  Output(prefix + ".invalidations", static_cast<double>(counters.invalidations));
  Output(prefix + ".directory_ops", static_cast<double>(counters.directory_ops));
}

std::string Report::ToJson() const {
  coopfs::JsonWriter json;
  json.BeginObject();
  json.Key("attempted").Value(attempted_);
  json.Key("failed").Value(failed_);
  json.Key("failures").BeginArray();
  for (const std::string& failure : failures_) {
    json.Value(failure);
  }
  json.EndArray();
  for (const auto& [section, values] : {std::pair{"metrics", &metrics_},
                                        std::pair{"simulated", &simulated_}}) {
    json.Key(section).BeginObject();
    for (const MetricValue& metric : *values) {
      json.Key(metric.name).BeginObject();
      json.Key("value").Value(metric.value);
      json.Key("unit").Value(metric.unit);
      json.EndObject();
    }
    json.EndObject();
  }
  json.Key("outputs").BeginObject();
  for (const auto& [key, value] : outputs_) {
    json.Key(key).Value(value);
  }
  json.EndObject();
  json.Key("context").BeginObject();
  for (const auto& [key, value] : context_text_) {
    json.Key(key).Value(value);
  }
  for (const auto& [key, value] : context_numbers_) {
    json.Key(key).Value(value);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Quantile(std::vector<std::uint32_t>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

double Mean(const std::vector<std::uint32_t>& values) {
  if (values.empty()) {
    return 0.0;
  }
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  return sum / static_cast<double>(values.size());
}

double PeakRssMib() {
  return static_cast<double>(coopfs::CurrentPeakRssBytes()) / (1024.0 * 1024.0);
}

void ResetPeakRss() {
#if defined(__GLIBC__)
  // Hand memory freed by earlier repetitions back to the kernel first, so
  // each repetition's peak starts from the same resident baseline.
  malloc_trim(0);
#endif
  coopfs::TryResetPeakRssCounter();
}

void ReportEndToEnd(const MeasuredPhase& phase, const std::vector<double>& setup_seconds,
                    Report& report) {
  for (std::size_t i = 0; i < setup_seconds.size(); ++i) {
    std::fprintf(stderr, "perfbench: set-up %zu: %.6f s\n", i + 1, setup_seconds[i]);
  }
  report.Metric("ops_per_s", Median(phase.rates), "1/s");
  report.Metric("setup_s", Median(setup_seconds), "s");
  // The smallest per-call peak: the call's own footprint with the least
  // memory retained by the allocator from earlier calls.
  report.Metric("peak_rss_mib", *std::min_element(phase.peak_mib.begin(), phase.peak_mib.end()),
                "MiB");
}

}  // namespace perfbench
