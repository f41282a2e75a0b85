// The coopfs_bench driver, the one binary that runs experiments.
//
// `coopfs_bench` executes registered experiments (src/exp/experiment.h):
//
//   coopfs_bench --list                     # enumerate experiments
//   coopfs_bench --filter 'fig0[456]*'      # run a glob-selected subset
//   coopfs_bench --threads 8 --filter '*'   # fan out across experiments
//   coopfs_bench --out-dir runs ...         # where run manifests land
//
// plus every BenchOptions flag (--events, --seed, --json, ...). Each
// experiment's stdout is buffered and printed in registration order, so the
// driver's output for a selection is byte-identical at any --threads. Driver
// chrome (progress, manifest paths) goes to stderr only. Every experiment
// writes a coopfs.run/v1 manifest (src/obs/run_manifest.h) into --out-dir.
// A malformed flag value is reported with the usage text, exit code 2.
#ifndef COOPFS_SRC_EXP_DRIVER_H_
#define COOPFS_SRC_EXP_DRIVER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exp/experiment.h"
#include "src/exp/options.h"
#include "src/obs/run_manifest.h"

namespace coopfs {

struct DriverOptions {
  BenchOptions bench;
  bool list = false;
  bool help = false;
  std::string filter = "*";
  std::size_t threads = 0;            // 0 = hardware concurrency
  std::string out_dir = "coopfs_runs";  // where run manifests are written

  // Parses the full coopfs_bench command line (driver flags + BenchOptions
  // flags); unknown flags are an error here, unlike BenchOptions::FromArgs,
  // and so is a malformed number.
  static Result<DriverOptions> Parse(int argc, char** argv);
};

// Outcome of one experiment executed by the driver.
struct ExperimentOutcome {
  const ExperimentSpec* spec = nullptr;
  Status status = Status::Ok();
  std::string output;    // buffered stdout, printed in registration order
  RunManifest manifest;  // fully populated (threads, wall time, command)
};

// Runs `specs` on a pool of up to `options.threads` workers (see the header
// comment for how the budget is split between experiments and inner sweeps).
// Pure with respect to stdout: outputs are returned buffered, manifests are
// returned unwritten. `on_done(index, outcome)` — optional — fires as each
// experiment completes, serialized under an internal mutex, for
// progress/streaming.
using ExperimentDoneCallback = std::function<void(std::size_t, const ExperimentOutcome&)>;
std::vector<ExperimentOutcome> RunExperiments(
    const std::vector<const ExperimentSpec*>& specs, const DriverOptions& options,
    const ExperimentDoneCallback& on_done = nullptr);

// main() of coopfs_bench.
int DriverMain(int argc, char** argv);

}  // namespace coopfs

#endif  // COOPFS_SRC_EXP_DRIVER_H_
