// Perf-harness result reporting ("coopfs.bench/v1").
//
// bench/perf_harness measures wall-clock throughput of the hot paths (trace
// generation, serial replay per policy, parallel sweep scaling) and writes
// the series to BENCH_coopfs.json through this module, giving every commit a
// machine-comparable perf baseline. The schema is documented in
// docs/metrics_schema.md alongside the metrics schema.
#ifndef COOPFS_SRC_OBS_BENCH_REPORT_H_
#define COOPFS_SRC_OBS_BENCH_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace coopfs {

inline constexpr std::string_view kBenchSchema = "coopfs.bench/v1";

// Optional per-series latency distribution (microseconds). Throughput-only
// suites (perf_harness) leave it unset; the serving harness (coopfs_serve)
// attaches one to every series so the serve-latency gate can compare tails
// across runs. Additive to the schema: documents without the object parse
// with the optional empty.
struct BenchLatency {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

// One named measurement: `items` work units processed in `wall_seconds`.
struct BenchSeries {
  std::string name;
  std::string unit = "events/s";    // What ops_per_sec counts.
  double ops_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t items = 0;          // Work units processed (e.g. trace events).
  std::uint64_t peak_rss_bytes = 0; // Peak RSS observed after the run. When
                                    // the harness can reset the kernel's
                                    // high-watermark (TryResetPeakRssCounter)
                                    // this is per-series; otherwise it is the
                                    // monotonic process-lifetime peak.

  // Sample spread across the measurement passes behind ops_per_sec. The
  // gated series run best-of-N (ops_per_sec is the fastest pass); the spread
  // lets consumers (run_diff's noise-aware significance test) tell a 3%
  // wobble on a jittery series from a real regression. Single-pass series
  // record the degenerate spread: iterations = 1, min = median = max =
  // ops_per_sec, cv = 0. All additive to the schema; documents from before
  // the fields existed parse as single-pass.
  std::uint32_t iterations = 1;     // Measurement passes taken.
  double ops_per_sec_min = 0.0;     // Slowest pass.
  double ops_per_sec_median = 0.0;  // Median pass.
  double ops_per_sec_max = 0.0;     // Fastest pass (== ops_per_sec).
  double cv = 0.0;                  // Stddev / mean of per-pass throughputs.

  // Latency distribution of the operations behind this series, when the
  // suite measures one (serve series). Absent for throughput-only series.
  std::optional<BenchLatency> latency;
};

struct BenchReport {
  std::string suite = "perf_harness";
  // Hardware concurrency of the machine that produced the document. The
  // scaling gate needs this to know how much speedup was physically
  // attainable: a 2-thread sweep cannot beat 1 thread on a 1-core host.
  // 0 = not recorded (documents from before the field existed).
  std::uint32_t host_threads = 0;
  // Build provenance, mirroring coopfs.metrics/v1: bench_compare quotes
  // these on gate failures so CI logs are self-contained. Empty fields
  // serialize as the current binary's build info; documents from before the
  // fields existed parse as "unknown". Additive to the schema.
  std::string git_sha;
  std::string build_type;
  std::vector<BenchSeries> series;

  std::string ToJson(int indent = 2) const;

  // Renders, self-validates, and writes to `path`.
  Status WriteFile(const std::string& path) const;
};

// ParseBenchDocument(json).status(). Used by perf_harness after writing
// (--dry-run included) and by the round-trip tests.
Status ValidateBenchDocument(std::string_view json);

// Validates and parses a "coopfs.bench/v1" document back into a BenchReport
// (tools-side consumption: bench_compare and its gate table): schema tag,
// series array, and per-series required fields, each count within its
// type. `host_threads`, the provenance strings, the spread fields and the
// latency object are optional (older documents predate them).
Result<BenchReport> ParseBenchDocument(std::string_view json);

// Peak resident set size of this process in bytes, or 0 where unsupported.
// On Linux this reads VmHWM, which TryResetPeakRssCounter can rewind.
std::uint64_t CurrentPeakRssBytes();

// Resets the kernel's peak-RSS high-watermark for this process so the next
// CurrentPeakRssBytes() reflects only memory touched after this call
// (per-series attribution in perf_harness). Returns false where
// unsupported; callers fall back to the monotonic process peak.
bool TryResetPeakRssCounter();

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_BENCH_REPORT_H_
