// The gates tools/bench_compare holds "coopfs.bench/v1" documents to.
//
// Every check is one row of a constexpr rule table (src/obs/bench_gate.cc)
// and one function evaluates them all. A row compares one field of a series
// (ops/s, p50, p99 or p999) against a reference: another series of the
// candidate, another field of the same series, or the same series in the
// baseline. Its bound is "at least", "at most" or "below" a factor times that
// reference. The rows, by the tag their failure lines carry:
//
//   REGRESSION  replay_* ops/s >= 0.90 x the baseline's (two-document mode)
//   LENGTH      replay_len_nchance_2m ops/s >= 0.5 x replay_len_greedy_2m
//   LENGTH      trace_gen_auspex_2m ops/s >= 0.5 x trace_gen_auspex_250k
//   OBS         replay_bounded_metrics ops/s >= 0.85 x replay_serial_nchance
//   SERVE       serve_* p50 <= p99 <= p999
//   SERVE       Figure 1's memory hierarchy on the p50s: local < remote
//               client, local < server disk, server memory < server disk
//   SERVE       serve_* p99 <= 1.5 x the baseline's (two-document mode)
//   SCALING     parallel_sweep_2t >= 0.85 x min(2, host_threads) x 1t, and
//               every wider width >= 0.90 x the best narrower one (0.75
//               beyond host_threads)
//
// docs/performance.md gives the reason for each bound.
#ifndef COOPFS_SRC_OBS_BENCH_GATE_H_
#define COOPFS_SRC_OBS_BENCH_GATE_H_

#include <string>
#include <vector>

#include "src/obs/bench_report.h"

namespace coopfs {

struct GateResult {
  // One line per violated bound: "<GATE> <series>: <field> <value>, needs
  // <op> <factor> x <reference> <value> = <limit> (<reason>)".
  std::vector<std::string> failures;
  // Checks skipped because one side of the comparison was not measured.
  std::vector<std::string> notes;
  // Tags of the gates that compared something and found no violation.
  std::vector<std::string> passed;
};

// Evaluates every rule over `candidate`. Rules whose reference is the
// baseline run only when `baseline` is non-null.
GateResult EvaluateBenchGates(const BenchReport& candidate,
                              const BenchReport* baseline = nullptr);

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_BENCH_GATE_H_
