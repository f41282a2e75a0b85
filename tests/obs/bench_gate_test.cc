// Selftests for the bench gate table (src/obs/bench_gate.h) and the
// bench_compare CLI that wires it into CI.
//
// The in-process tests pin each row's verdicts and failure wording: the
// sweep's host-aware floor and monotonicity, the N-Chance-to-Greedy ratio
// at 2M events, Auspex generation's per-event cost from 250k to 2M events,
// the bounded-metrics overhead ceiling, the replay floor
// against a baseline, the serve quantile,
// memory-hierarchy and p99 rows, and the edge cases the table decides one
// way for every row. A seeded mutation fuzz holds the parser and the table
// to hostile documents. The subprocess tests run the actual bench_compare
// binary against synthetic coopfs.bench/v1 documents and assert the
// exit-code contract (0 = pass, 1 = gate failed, 2 = usage or load error)
// plus the stderr lines the CI log greps for.
#include "src/obs/bench_gate.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/obs/bench_report.h"

#ifdef __unix__
#include <sys/wait.h>
#endif

namespace coopfs {
namespace {

BenchSeries Series(const std::string& name, double ops_per_sec) {
  BenchSeries series;
  series.name = name;
  series.ops_per_sec = ops_per_sec;
  series.wall_seconds = 1.0;
  series.items = 100;
  return series;
}

BenchReport Report(std::vector<BenchSeries> series, std::uint32_t host_threads = 4) {
  BenchReport report;
  report.host_threads = host_threads;
  report.series = std::move(series);
  return report;
}

// On the default 4-thread host, 1t=100, 2t=180 (1.8x), 4t=320, 8t=310
// passes the floor and monotonicity.
BenchReport SweepReport(double two = 180.0, double four = 320.0, double eight = 310.0) {
  return Report({Series("parallel_sweep_1t", 100.0), Series("parallel_sweep_2t", two),
                 Series("parallel_sweep_4t", four), Series("parallel_sweep_8t", eight)});
}

// 2t = 1.2x of 1t misses the 1.7x floor; the curve stays monotonic so the
// floor is the only violation.
BenchReport FloorMissReport() { return SweepReport(120.0, 130.0, 135.0); }

// 8t falls below 0.75 x the best narrower width (4t = 320).
BenchReport CollapseReport() { return SweepReport(180.0, 320.0, 150.0); }

BenchReport ObsReport(double serial_ops, double bounded_ops) {
  return Report({Series("replay_serial_nchance", serial_ops),
                 Series("replay_bounded_metrics", bounded_ops)});
}

BenchReport LengthReport(double nchance_ops, double greedy_ops) {
  return Report({Series("replay_len_nchance_2m", nchance_ops),
                 Series("replay_len_greedy_2m", greedy_ops)});
}

BenchReport GenerationReport(double ops_250k, double ops_2m) {
  return Report({Series("trace_gen_auspex_250k", ops_250k),
                 Series("trace_gen_auspex_2m", ops_2m)});
}

BenchReport ReplayReport(double nchance_ops, double lookup_ops) {
  return Report({Series("replay_serial_nchance", nchance_ops),
                 Series("flat_map_lookup", lookup_ops)});
}

BenchSeries ServeSeries(const std::string& name, std::uint64_t count, double p50, double p99,
                        double p999) {
  BenchSeries series = Series(name, 1'000'000.0);
  series.unit = "ops/s";
  series.latency = BenchLatency{.count = count, .p50_us = p50, .p90_us = (p50 + p99) / 2,
                                .p95_us = (p50 + p99) / 2, .p99_us = p99, .p999_us = p999,
                                .mean_us = p50, .min_us = p50, .max_us = p999};
  return series;
}

// A well-formed serve document: level medians ordered per the paper's memory
// hierarchy, quantiles monotonic within every series. Series 1 is
// serve_get_local, 2 serve_get_remote_client and 4 serve_get_server_disk.
BenchReport GoodServeReport() {
  BenchReport report =
      Report({ServeSeries("serve_throughput", 10'000, 300, 16'000, 16'200),
              ServeSeries("serve_get_local", 6'000, 250, 260, 280),
              ServeSeries("serve_get_remote_client", 1'500, 1'250, 1'300, 1'320),
              ServeSeries("serve_get_server_memory", 1'000, 1'050, 1'100, 1'120),
              ServeSeries("serve_get_server_disk", 1'500, 15'850, 15'900, 15'950)},
             0);
  report.suite = "coopfs_serve";
  return report;
}

// Local median slower than the disk median: the hierarchy is inverted.
BenchReport InvertedServeReport() {
  BenchReport report = GoodServeReport();
  report.series[1] = ServeSeries("serve_get_local", 6'000, 20'000, 20'100, 20'200);
  return report;
}

// serve_get_local's p99 at 2x the GoodServeReport baseline's.
BenchReport TailRegressedServeReport() {
  BenchReport report = GoodServeReport();
  report.series[1] = ServeSeries("serve_get_local", 6'000, 250, 520, 520);
  return report;
}

bool AnyContains(const std::vector<std::string>& lines, const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(), [&needle](const std::string& line) {
    return line.find(needle) != std::string::npos;
  });
}

bool Passed(const GateResult& result, const std::string& gate) {
  return std::find(result.passed.begin(), result.passed.end(), gate) != result.passed.end();
}

// A gate applied when it passed or left a failure line tagged with it.
bool Applied(const GateResult& result, const std::string& gate) {
  return Passed(result, gate) || AnyContains(result.failures, gate + " ");
}

std::string FirstFailure(const GateResult& result) {
  return result.failures.empty() ? std::string() : result.failures.front();
}

// ---------------------------------------------------------------------------
// SCALING: the parallel_sweep_<T>t row.
// ---------------------------------------------------------------------------

TEST(ScalingGateTest, NotApplicableWithoutSweepSeries) {
  const GateResult result = EvaluateBenchGates(Report({Series("replay_serial_nchance", 100.0)}));
  EXPECT_FALSE(Applied(result, "SCALING"));
  EXPECT_TRUE(result.failures.empty());
}

TEST(ScalingGateTest, NotApplicableWithOnlySerialSweep) {
  const GateResult result = EvaluateBenchGates(Report({Series("parallel_sweep_1t", 100.0)}));
  EXPECT_FALSE(Applied(result, "SCALING"));
  EXPECT_TRUE(result.failures.empty());
}

TEST(ScalingGateTest, PassesHealthyCurve) {
  const GateResult result = EvaluateBenchGates(SweepReport());
  EXPECT_TRUE(Passed(result, "SCALING"));
  EXPECT_TRUE(result.failures.empty()) << FirstFailure(result);
}

TEST(ScalingGateTest, FailsWhenTwoThreadSpeedupMissesFloor) {
  const GateResult result = EvaluateBenchGates(FloorMissReport());
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].starts_with(
      "SCALING parallel_sweep_2t: ops/s 120.0, needs >= 1.70 x parallel_sweep_1t ops/s 100.0 = "
      "170.0 (the 2-thread sweep reaches 0.85 of the speedup a 4-thread host allows)"))
      << result.failures[0];
}

TEST(ScalingGateTest, FailsWhenWiderWidthCollapses) {
  const GateResult result = EvaluateBenchGates(CollapseReport());
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].starts_with(
      "SCALING parallel_sweep_8t: ops/s 150.0, needs >= 0.75 x parallel_sweep_4t ops/s 320.0"))
      << result.failures[0];
  EXPECT_NE(result.failures[0].find("non-monotonic scaling"), std::string::npos);
}

TEST(ScalingGateTest, FailsWithoutHostThreadsWhenApplicable) {
  BenchReport report = SweepReport();
  report.host_threads = 0;
  const GateResult result = EvaluateBenchGates(report);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].find("host_threads not recorded"), std::string::npos);
}

TEST(ScalingGateTest, FailsWhenTwoThreadSeriesMissing) {
  const GateResult result = EvaluateBenchGates(
      Report({Series("parallel_sweep_1t", 100.0), Series("parallel_sweep_4t", 320.0)}));
  EXPECT_TRUE(AnyContains(result.failures, "SCALING parallel_sweep_2t: ops/s not measured"))
      << FirstFailure(result);
}

TEST(ScalingGateTest, FailsOnZeroSerialThroughput) {
  BenchReport report = SweepReport();
  report.series[0].ops_per_sec = 0.0;
  EXPECT_TRUE(AnyContains(EvaluateBenchGates(report).failures, "a reference that is not positive"));
}

// On a 1-core host the attainable speedup is 1, so the floor degrades to
// 0.85x serial: near-parity passes (with an explanatory note), a lock convoy
// that halves throughput still fails.
TEST(ScalingGateTest, OneCoreHostUsesDegradedFloor) {
  BenchReport report = SweepReport(95.0, 95.0, 94.0);
  report.host_threads = 1;
  const GateResult near_parity = EvaluateBenchGates(report);
  EXPECT_TRUE(Passed(near_parity, "SCALING")) << FirstFailure(near_parity);
  EXPECT_TRUE(AnyContains(near_parity.notes, "host_threads=1"));

  report.series[1].ops_per_sec = 50.0;
  EXPECT_TRUE(AnyContains(EvaluateBenchGates(report).failures,
                          "SCALING parallel_sweep_2t: ops/s 50.0"));
}

// Widths beyond host_threads re-measure the widest real configuration, so
// they get the looser 0.75 tolerance: a noise-level dip at 8t on a 4-thread
// host passes, the same dip inside host_threads fails, and a collapse fails
// either way.
TEST(ScalingGateTest, OversubscribedWidthsGetLooserTolerance) {
  BenchReport report = SweepReport(180.0, 320.0, 260.0);  // 8t at 0.81 of 4t.
  EXPECT_TRUE(EvaluateBenchGates(report).failures.empty());

  report.host_threads = 8;
  EXPECT_TRUE(AnyContains(EvaluateBenchGates(report).failures,
                          "SCALING parallel_sweep_8t: ops/s 260.0, needs >= 0.90 x"));

  EXPECT_FALSE(EvaluateBenchGates(SweepReport(180.0, 320.0, 230.0)).failures.empty());
}

// ---------------------------------------------------------------------------
// OBS: replay_bounded_metrics against replay_serial_nchance.
// ---------------------------------------------------------------------------

TEST(ObsGateTest, NotApplicableWithoutBoundedSeries) {
  const GateResult result = EvaluateBenchGates(Report({Series("replay_serial_nchance", 100.0)}));
  EXPECT_FALSE(Applied(result, "OBS"));
  EXPECT_TRUE(result.failures.empty());
  EXPECT_TRUE(AnyContains(result.notes, "replay_bounded_metrics not measured"));
}

TEST(ObsGateTest, NotApplicableWithoutBaselineSeries) {
  const GateResult result = EvaluateBenchGates(Report({Series("replay_bounded_metrics", 90.0)}));
  EXPECT_FALSE(Applied(result, "OBS"));
  EXPECT_TRUE(result.failures.empty());
}

TEST(ObsGateTest, PassesWithinOverheadCeiling) {
  // 90/100 = 0.90x >= the 0.85x floor.
  const GateResult result = EvaluateBenchGates(ObsReport(100.0, 90.0));
  EXPECT_TRUE(Passed(result, "OBS")) << FirstFailure(result);
}

TEST(ObsGateTest, FailsBeyondOverheadCeiling) {
  const GateResult result = EvaluateBenchGates(ObsReport(100.0, 70.0));
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].starts_with(
      "OBS replay_bounded_metrics: ops/s 70.0, needs >= 0.85 x replay_serial_nchance ops/s "
      "100.0 = 85.0"))
      << result.failures[0];
}

TEST(ObsGateTest, FailsOnZeroBaselineThroughput) {
  const GateResult result = EvaluateBenchGates(ObsReport(0.0, 90.0));
  EXPECT_TRUE(AnyContains(result.failures, "OBS replay_bounded_metrics"));
}

// ---------------------------------------------------------------------------
// LENGTH: replay_len_nchance_2m against replay_len_greedy_2m.
// ---------------------------------------------------------------------------

TEST(LengthGateTest, PassesWithinTwiceGreedyTime) {
  // 60/100: N-Chance takes 1.67x Greedy's time, within the 2x bound.
  const GateResult result = EvaluateBenchGates(LengthReport(60.0, 100.0));
  EXPECT_TRUE(Passed(result, "LENGTH")) << FirstFailure(result);
  EXPECT_TRUE(EvaluateBenchGates(LengthReport(50.0, 100.0)).failures.empty());
}

TEST(LengthGateTest, FailsAtTheEvictionScanCliff) {
  // A whole-cache victim scan ran N-Chance at 1/8.6 of Greedy's rate.
  const GateResult result = EvaluateBenchGates(LengthReport(11.6, 100.0));
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].starts_with(
      "LENGTH replay_len_nchance_2m: ops/s 11.6, needs >= 0.50 x replay_len_greedy_2m ops/s "
      "100.0 = 50.0 (at 2M events N-Chance may take at most twice Greedy's replay time)"))
      << result.failures[0];
  EXPECT_FALSE(Passed(result, "LENGTH"));
}

TEST(LengthGateTest, NotApplicableWithoutBothSeries) {
  const GateResult nchance_only =
      EvaluateBenchGates(Report({Series("replay_len_nchance_2m", 60.0)}));
  EXPECT_FALSE(Applied(nchance_only, "LENGTH"));
  EXPECT_TRUE(nchance_only.failures.empty());
  EXPECT_TRUE(AnyContains(nchance_only.notes, "replay_len_greedy_2m not measured"));
  EXPECT_FALSE(Applied(EvaluateBenchGates(ReplayReport(100.0, 100.0)), "LENGTH"));
}

// LENGTH also holds Auspex generation: trace_gen_auspex_2m against
// trace_gen_auspex_250k.
TEST(LengthGateTest, GenerationPassesWithinTwicePerEventCost) {
  // 550k/600k events/s: 2M events cost 1.09x per event what 250k do.
  const GateResult result = EvaluateBenchGates(GenerationReport(600'000.0, 550'000.0));
  EXPECT_TRUE(Passed(result, "LENGTH")) << FirstFailure(result);
  EXPECT_TRUE(EvaluateBenchGates(GenerationReport(600'000.0, 300'000.0)).failures.empty());
}

TEST(LengthGateTest, GenerationFailsWhenDeletesScanEveryFilter) {
  // Scanning all 237 snoop filters on each temp-file delete cost 3.2x per
  // event at 2M what it cost at 250k.
  const GateResult result = EvaluateBenchGates(GenerationReport(600'000.0, 186'000.0));
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0],
            "LENGTH trace_gen_auspex_2m: ops/s 186000.0, needs >= 0.50 x "
            "trace_gen_auspex_250k ops/s 600000.0 = 300000.0 (per-event generation cost may "
            "at most double from 250k to 2M events)");
  EXPECT_FALSE(Passed(result, "LENGTH"));
}

TEST(LengthGateTest, GenerationRowSkippedWithoutBothSeries) {
  const GateResult long_only =
      EvaluateBenchGates(Report({Series("trace_gen_auspex_2m", 186'000.0)}));
  EXPECT_FALSE(Applied(long_only, "LENGTH"));
  EXPECT_TRUE(long_only.failures.empty());
  EXPECT_TRUE(AnyContains(long_only.notes, "LENGTH trace_gen_auspex_2m ops/s >= "
                                           "trace_gen_auspex_250k ops/s skipped: "
                                           "trace_gen_auspex_250k not measured"));
  const GateResult short_only =
      EvaluateBenchGates(Report({Series("trace_gen_auspex_250k", 600'000.0)}));
  EXPECT_FALSE(Applied(short_only, "LENGTH"));
  EXPECT_TRUE(AnyContains(short_only.notes, "skipped: trace_gen_auspex_2m not measured"));
}

// A baseline without the length series (the committed one predates them)
// skips their REGRESSION comparison instead of failing it.
TEST(LengthGateTest, BaselineWithoutLengthSeriesSkipsTheirRegressionRow) {
  const BenchReport baseline = ReplayReport(100.0, 100.0);
  BenchReport candidate = ReplayReport(100.0, 100.0);
  candidate.series.push_back(Series("replay_len_nchance_2m", 60.0));
  candidate.series.push_back(Series("replay_len_greedy_2m", 100.0));
  const GateResult result = EvaluateBenchGates(candidate, &baseline);
  EXPECT_TRUE(result.failures.empty()) << FirstFailure(result);
  EXPECT_TRUE(Passed(result, "REGRESSION"));
  EXPECT_TRUE(Passed(result, "LENGTH"));
}

// ---------------------------------------------------------------------------
// REGRESSION: replay_* against the baseline document.
// ---------------------------------------------------------------------------

TEST(RegressionGateTest, HoldsReplaySeriesToTheBaseline) {
  const BenchReport baseline = ReplayReport(100.0, 100.0);
  // A 5% replay dip and a 60% dip on an ungated series pass.
  const GateResult noisy = EvaluateBenchGates(ReplayReport(95.0, 40.0), &baseline);
  EXPECT_TRUE(Passed(noisy, "REGRESSION")) << FirstFailure(noisy);

  const GateResult slower = EvaluateBenchGates(ReplayReport(50.0, 100.0), &baseline);
  ASSERT_EQ(slower.failures.size(), 1u);
  EXPECT_TRUE(slower.failures[0].starts_with(
      "REGRESSION replay_serial_nchance: ops/s 50.0, needs >= 0.90 x baseline ops/s 100.0 = "
      "90.0"))
      << slower.failures[0];

  // A baseline replay series the candidate dropped fails too.
  EXPECT_TRUE(AnyContains(
      EvaluateBenchGates(Report({Series("flat_map_lookup", 100.0)}), &baseline).failures,
      "REGRESSION replay_serial_nchance: ops/s not measured"));
  // Without a baseline the row does not apply.
  EXPECT_FALSE(Applied(EvaluateBenchGates(ReplayReport(50.0, 100.0)), "REGRESSION"));
}

// Every at-least row needs a positive reference: a zero baseline would pass
// any candidate. The separate OBS and SCALING modules already failed such a
// reference; the replay row used to pass it.
TEST(RegressionGateTest, ZeroBaselineThroughputFails) {
  const BenchReport baseline = ReplayReport(0.0, 100.0);
  const GateResult result = EvaluateBenchGates(ReplayReport(100.0, 100.0), &baseline);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].starts_with("REGRESSION replay_serial_nchance"));
  EXPECT_NE(result.failures[0].find("a reference that is not positive"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SERVE: quantile, memory-hierarchy and baseline p99 rows.
// ---------------------------------------------------------------------------

TEST(ServeGateTest, NotApplicableWithoutServeSeries) {
  const GateResult result = EvaluateBenchGates(Report({Series("replay_nchance", 5e6)}));
  EXPECT_FALSE(Applied(result, "SERVE"));
  EXPECT_TRUE(result.failures.empty());
  EXPECT_TRUE(result.notes.empty());
}

TEST(ServeGateTest, WellFormedDocumentPasses) {
  const GateResult result = EvaluateBenchGates(GoodServeReport());
  EXPECT_TRUE(Passed(result, "SERVE"));
  EXPECT_TRUE(result.failures.empty()) << FirstFailure(result);
}

TEST(ServeGateTest, MissingLocalSeriesFails) {
  BenchReport report = GoodServeReport();
  // Drop serve_get_local: a storm that never hits the local cache is a
  // misconfigured measurement.
  report.series.erase(report.series.begin() + 1);
  const GateResult result = EvaluateBenchGates(report);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_TRUE(result.failures[0].starts_with("SERVE serve_get_local: p50 not measured"))
      << result.failures[0];
}

// Local hits are required once the remote-client or server-disk level was
// measured. A document with none of the three passes: the separate serve
// module failed it, but no row has a measured reference to hold it to.
TEST(ServeGateTest, LocalHitsRequiredOnceOtherLevelsAreMeasured) {
  BenchReport report = GoodServeReport();
  for (const std::size_t level : {1, 2, 4}) {
    report.series[level].latency->count = 0;
  }
  EXPECT_TRUE(EvaluateBenchGates(report).failures.empty());

  report.series[4].latency->count = 1'500;
  EXPECT_TRUE(AnyContains(EvaluateBenchGates(report).failures,
                          "SERVE serve_get_local: p50 not measured"));
}

TEST(ServeGateTest, NonMonotonicQuantilesFail) {
  BenchReport report = GoodServeReport();
  report.series[1].latency->p999_us = 100.0;  // p999 < p99 on serve_get_local.
  EXPECT_TRUE(AnyContains(EvaluateBenchGates(report).failures,
                          "SERVE serve_get_local: p99 260.0 us, needs <= 1.00 x p999 100.0 us"));
}

TEST(ServeGateTest, InvertedHierarchyOrderingFails) {
  EXPECT_TRUE(AnyContains(EvaluateBenchGates(InvertedServeReport()).failures,
                          "SERVE serve_get_local: p50 20000.0 us, needs < 1.00 x "
                          "serve_get_server_disk p50 15850.0 us"));
}

TEST(ServeGateTest, UntraffickedLevelsAreNotedNotFailed) {
  BenchReport report = GoodServeReport();
  report.series[2].latency->count = 0;  // No remote-client traffic this run.
  const GateResult result = EvaluateBenchGates(report);
  EXPECT_TRUE(result.failures.empty()) << FirstFailure(result);
  EXPECT_TRUE(AnyContains(result.notes, "serve_get_remote_client not measured"));
}

TEST(ServeGateTest, BaselineP99RegressionFailsBeyondSlack) {
  const BenchReport baseline = GoodServeReport();
  const GateResult result = EvaluateBenchGates(TailRegressedServeReport(), &baseline);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].starts_with(
      "SERVE serve_get_local: p99 520.0 us, needs <= 1.50 x baseline p99 260.0 us = 390.0 us"))
      << result.failures[0];
  // Single-document mode has no baseline to regress against.
  EXPECT_TRUE(EvaluateBenchGates(TailRegressedServeReport()).failures.empty());
}

TEST(ServeGateTest, BaselineWithinSlackPasses) {
  const BenchReport baseline = GoodServeReport();
  BenchReport candidate = GoodServeReport();
  candidate.series[1] = ServeSeries("serve_get_local", 6'000, 250, 312, 338);  // p99 +20%.
  const GateResult result = EvaluateBenchGates(candidate, &baseline);
  EXPECT_TRUE(result.failures.empty()) << FirstFailure(result);
}

// ---------------------------------------------------------------------------
// Hostile documents: a mutated document parses or returns a Status, and
// whatever parses survives every row and writes back out as valid.
// ---------------------------------------------------------------------------

class BenchDocumentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenchDocumentFuzz, MutatedDocumentsParseOrFailCleanly) {
  constexpr const char* kHostileNumbers[] = {"-1", "1e300", "18446744073709551616", "0.5"};
  // A number token follows ':', ',' or '['; digits inside strings do not.
  const std::regex number(R"([:,\[]\s*(-?[0-9][0-9.eE+-]*))");
  // Shaped like perf_harness output (replay, bounded-metrics and sweep
  // series) and like coopfs_serve output (a latency object per series).
  BenchReport perf = SweepReport();
  for (const BenchSeries& series : ObsReport(3.7e6, 3.5e6).series) {
    perf.series.push_back(series);
  }
  Rng rng(GetParam());
  for (const BenchReport& clean : {perf, GoodServeReport()}) {
    const std::string original = clean.ToJson();
    std::vector<std::pair<std::size_t, std::size_t>> tokens;  // [start, length).
    for (auto it = std::sregex_iterator(original.begin(), original.end(), number);
         it != std::sregex_iterator(); ++it) {
      tokens.emplace_back(it->position(1), it->length(1));
    }
    ASSERT_GT(tokens.size(), 40u);

    for (int trial = 0; trial < 300; ++trial) {
      std::string bytes = original;
      switch (rng.NextBelow(3)) {
        case 0: {  // Flip 1-8 random bytes.
          for (std::uint64_t flips = 1 + rng.NextBelow(8); flips > 0; --flips) {
            bytes[rng.NextBelow(bytes.size())] = static_cast<char>(rng.NextBelow(256));
          }
          break;
        }
        case 1:
          bytes.resize(rng.NextBelow(bytes.size() + 1));
          break;
        case 2: {  // Swap 1-3 numbers for hostile ones, back to front.
          std::vector<std::size_t> picks;
          for (std::uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
            picks.push_back(rng.NextBelow(tokens.size()));
          }
          std::sort(picks.rbegin(), picks.rend());
          picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
          for (const std::size_t pick : picks) {
            bytes.replace(tokens[pick].first, tokens[pick].second,
                          kHostileNumbers[rng.NextBelow(4)]);
          }
          break;
        }
      }
      const Result<BenchReport> parsed = ParseBenchDocument(bytes);  // Must not crash.
      if (!parsed.ok()) {
        continue;
      }
      EvaluateBenchGates(*parsed);
      EvaluateBenchGates(*parsed, &clean);
      EvaluateBenchGates(clean, &*parsed);
      ASSERT_TRUE(ParseBenchDocument(parsed->ToJson()).ok()) << bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchDocumentFuzz, ::testing::Values(1ull, 7ull, 31ull));

// ---------------------------------------------------------------------------
// bench_compare CLI: exit codes and the messages CI greps for.
// ---------------------------------------------------------------------------

#if defined(COOPFS_BENCH_COMPARE_PATH) && defined(__unix__)

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined.
};

CommandResult RunCommand(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

// Writes `documents` (baseline first) under TempDir as "<tag>_<i>.json" and
// runs bench_compare on them.
CommandResult RunTool(const std::string& tag, const std::vector<BenchReport>& documents) {
  std::string command = COOPFS_BENCH_COMPARE_PATH;
  for (std::size_t i = 0; i < documents.size(); ++i) {
    const std::string path = ::testing::TempDir() + tag + "_" + std::to_string(i) + ".json";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << documents[i].ToJson();
    command += " " + path;
  }
  return RunCommand(command);
}

class BenchCompareCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::ifstream(COOPFS_BENCH_COMPARE_PATH).good()) {
      GTEST_SKIP() << "bench_compare not built at " << COOPFS_BENCH_COMPARE_PATH;
    }
  }
};

TEST_F(BenchCompareCliTest, HealthyDocumentExitsZero) {
  const CommandResult result = RunTool("bench_gate_pass", {SweepReport()});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("bench_compare: SCALING gate passed"), std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, FloorFailureExitsOneWithScalingMessage) {
  const CommandResult result = RunTool("bench_gate_floor", {FloorMissReport()});
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bench_compare: SCALING parallel_sweep_2t: ops/s 120.0, "
                               "needs >= 1.70 x parallel_sweep_1t ops/s 100.0"),
            std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, MonotonicityFailureExitsOneWithScalingMessage) {
  const CommandResult result = RunTool("bench_gate_mono", {CollapseReport()});
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("non-monotonic scaling"), std::string::npos) << result.output;
}

TEST_F(BenchCompareCliTest, ObsOverheadFailureExitsOneWithObsMessage) {
  const CommandResult result = RunTool("bench_gate_obs_fail", {ObsReport(100.0, 70.0)});
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bench_compare: OBS replay_bounded_metrics: ops/s 70.0, "
                               "needs >= 0.85 x replay_serial_nchance ops/s 100.0"),
            std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, ObsOverheadWithinCeilingExitsZero) {
  const CommandResult result = RunTool("bench_gate_obs_pass", {ObsReport(100.0, 90.0)});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("bench_compare: OBS gate passed"), std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, CorruptDocumentExitsTwo) {
  const std::string path = ::testing::TempDir() + "bench_gate_corrupt.json";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "{ not a bench document";
  const CommandResult result = RunCommand(std::string(COOPFS_BENCH_COMPARE_PATH) + " " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

// The failure block carries both documents' provenance after the gate line.
TEST_F(BenchCompareCliTest, ReplayRegressionStillExitsOne) {
  const CommandResult result =
      RunTool("bench_gate_replay", {ReplayReport(100.0, 100.0), ReplayReport(50.0, 100.0)});
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bench_compare: REGRESSION replay_serial_nchance: ops/s 50.0, "
                               "needs >= 0.90 x baseline ops/s 100.0"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("bench_compare: baseline " + ::testing::TempDir() +
                               "bench_gate_replay_0.json: git"),
            std::string::npos)
      << result.output;
}

// One row per verdict: the documents (baseline first when there are two),
// the exit code, and the gate line the output must carry.
struct CliCase {
  std::string name;
  std::vector<BenchReport> documents;
  int exit_code;
  std::string failure_prefix;  // Follows "bench_compare: "; empty for none.
};

// gtest_discover_tests names each case after this print: ".../detects_regression".
void PrintTo(const CliCase& row, std::ostream* out) { *out << row.name; }

std::vector<CliCase> CliCases() {
  return {
      {"detects_regression", {ReplayReport(100.0, 100.0), ReplayReport(50.0, 100.0)}, 1,
       "REGRESSION replay_serial_nchance"},
      {"tolerates_noise", {ReplayReport(100.0, 100.0), ReplayReport(95.0, 40.0)}, 0, ""},
      {"scaling_pass", {SweepReport()}, 0, ""},
      {"scaling_floor_fail", {FloorMissReport()}, 1, "SCALING parallel_sweep_2t"},
      {"scaling_mono_fail", {CollapseReport()}, 1, "SCALING parallel_sweep_8t"},
      {"length_pass", {LengthReport(60.0, 100.0)}, 0, ""},
      {"length_fail", {LengthReport(11.6, 100.0)}, 1, "LENGTH replay_len_nchance_2m"},
      {"generation_pass", {GenerationReport(600'000.0, 550'000.0)}, 0, ""},
      {"generation_fail", {GenerationReport(600'000.0, 186'000.0)}, 1,
       "LENGTH trace_gen_auspex_2m"},
      {"obs_pass", {ObsReport(100.0, 90.0)}, 0, ""},
      {"obs_fail", {ObsReport(100.0, 70.0)}, 1, "OBS replay_bounded_metrics"},
      {"serve_pass", {GoodServeReport()}, 0, ""},
      {"serve_order_fail", {InvertedServeReport()}, 1, "SERVE serve_get_local"},
      {"serve_p99_regression", {GoodServeReport(), TailRegressedServeReport()}, 1,
       "SERVE serve_get_local: p99"},
      {"three_documents_are_a_usage_error", {SweepReport(), SweepReport(), SweepReport()}, 2,
       ""},
  };
}

class BenchCompareCliTable : public BenchCompareCliTest,
                             public ::testing::WithParamInterface<CliCase> {};

TEST_P(BenchCompareCliTable, ExitCodeAndFailurePrefix) {
  const CommandResult result = RunTool("bench_cli_" + GetParam().name, GetParam().documents);
  EXPECT_EQ(result.exit_code, GetParam().exit_code) << result.output;
  if (!GetParam().failure_prefix.empty()) {
    EXPECT_NE(result.output.find("bench_compare: " + GetParam().failure_prefix),
              std::string::npos)
        << result.output;
  }
}

INSTANTIATE_TEST_SUITE_P(Fixtures, BenchCompareCliTable, ::testing::ValuesIn(CliCases()));

#endif  // COOPFS_BENCH_COMPARE_PATH && __unix__

}  // namespace
}  // namespace coopfs
