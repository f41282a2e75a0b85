// coopfs benchmark: shared types for the three workloads.
//
// Each workload runs in its own process (perfbench/run.py starts one per
// invocation), so peak RSS and set-up time belong to that workload alone.
// A workload fills a Report: end-to-end metrics (untraced run) or per-layer
// metrics (traced run), the simulated outputs the reference check compares,
// the workload description, and every operation attempted with its outcome.
#ifndef COOPFS_PERFBENCH_SRC_PERFBENCH_H_
#define COOPFS_PERFBENCH_SRC_PERFBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/sim/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Workload size override (replay events or serve ops); 0 = the workload's
  // default. Used by the benchmark's own tests to run tiny sizes.
  std::uint64_t size = 0;
};

class Report {
 public:
  // One checked operation: counts toward `attempted`, and toward `failed`
  // (with `what` kept for the log) when !ok.
  void Attempt(bool ok, const std::string& what);
  void Attempt(const coopfs::Status& status, const std::string& what) {
    Attempt(status.ok(), what + (status.ok() ? "" : ": " + status.ToString()));
  }

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // A traced-run value of simulated behaviour (counts, hit fractions): not a
  // speed metric, so it has no better direction. A pure speed-up leaves it
  // unchanged on the replays; on serve_mixed it explains hit-mix shifts.
  void Simulated(const std::string& name, double value, const std::string& unit) {
    simulated_.push_back({name, value, unit});
  }
  // Simulated statistics keyed for the stored-reference comparison.
  void Output(const std::string& key, double value) { outputs_.emplace_back(key, value); }
  void Context(const std::string& key, const std::string& value) {
    context_text_.emplace_back(key, value);
  }
  void Context(const std::string& key, double value) { context_numbers_.emplace_back(key, value); }

  // Adds the reference outputs of one replay result under `prefix`.
  void AddReplayOutputs(const std::string& prefix, const coopfs::SimulationResult& result);

  // One-line JSON document: attempted, failed, failures, metrics and
  // simulated (name -> {value, unit}), outputs, context.
  std::string ToJson() const;

 private:
  struct MetricValue {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<MetricValue> metrics_;
  std::vector<MetricValue> simulated_;
  std::vector<std::pair<std::string, double>> outputs_;
  std::vector<std::pair<std::string, std::string>> context_text_;
  std::vector<std::pair<std::string, double>> context_numbers_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nanoseconds since `start`, saturated to 32 bits (per-call samples).
inline std::uint32_t NanosSince(Clock::time_point start) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  return static_cast<std::uint32_t>(std::min<std::int64_t>(ns, UINT32_MAX));
}

// Rewinds the peak-RSS watermark (no-op where unsupported).
void ResetPeakRss();

// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> values);

// Nearest-rank quantile of `values` (q in [0, 1]); 0 if empty.
double Quantile(std::vector<std::uint32_t>& values, double q);

double Mean(const std::vector<std::uint32_t>& values);

// Peak resident memory of this process since the last watermark reset, MiB.
double PeakRssMib();

// One repetition of a workload's measured call: work items done (events or
// ops) and the seconds the call itself took.
struct Repetition {
  double items = 0.0;
  double seconds = 0.0;
};

// The measured phase of an untraced run: `warmup` untimed repetitions, then
// repetitions until `seconds` have passed and at least `min_repetitions`
// were made. The peak-RSS watermark is reset before each one, so every
// repetition has its own peak.
struct MeasuredPhase {
  std::vector<double> rates;     // items / second, per repetition.
  std::vector<double> peak_mib;  // Peak RSS, per repetition.
};
template <typename Rep>
MeasuredPhase Measure(double seconds, int warmup, Rep rep, std::size_t min_repetitions = 1) {
  for (int i = 0; i < warmup; ++i) {
    rep();
  }
  MeasuredPhase phase;
  const auto start = Clock::now();
  while (phase.rates.size() < min_repetitions || SecondsSince(start) < seconds) {
    ResetPeakRss();
    const Repetition done = rep();
    phase.rates.push_back(done.items / done.seconds);
    phase.peak_mib.push_back(PeakRssMib());
    std::fprintf(stderr, "perfbench: repetition %zu: %.0f items/s, peak %.1f MiB\n",
                 phase.rates.size(), phase.rates.back(), phase.peak_mib.back());
  }
  return phase;
}

// The end-to-end metrics: median rate, median set-up time, smallest
// per-repetition peak RSS.
void ReportEndToEnd(const MeasuredPhase& phase, const std::vector<double>& setup_seconds,
                    Report& report);

// Workload entry points. Each fills `report` with the end-to-end metrics
// (options.trace == false) or the per-layer metrics (options.trace == true).
void RunSpriteLong(const Options& options, Report& report);
void RunAuspexSweep(const Options& options, Report& report);
void RunServeMixed(const Options& options, Report& report);

}  // namespace perfbench

#endif  // COOPFS_PERFBENCH_SRC_PERFBENCH_H_
