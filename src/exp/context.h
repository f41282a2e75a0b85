// Execution context handed to every ExperimentSpec::run function.
//
// The context owns everything one experiment needs: the resolved BenchOptions,
// buffered stdout (so the driver can interleave experiments on a thread pool
// yet print outputs in registration order, byte-identical at any thread
// count), lazily shared traces (src/exp/trace_pool.h), per-context
// observability sinks (TraceRecorder / SnapshotSampler — each experiment gets
// its own, unlike the old bench_common process-wide singletons, so
// experiments can run concurrently), and the coopfs.run/v1 manifest being
// accumulated for the run (src/obs/run_manifest.h).
//
// Specs report failures as Status (never exit()): the driver keeps running
// the remaining experiments and exits non-zero at the end.
#ifndef COOPFS_SRC_EXP_CONTEXT_H_
#define COOPFS_SRC_EXP_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/core/sweep.h"
#include "src/exp/experiment.h"
#include "src/exp/options.h"
#include "src/obs/run_manifest.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/event.h"

#if defined(__GNUC__) || defined(__clang__)
#define COOPFS_PRINTF_LIKE(fmt_index, first_arg) \
  __attribute__((format(printf, fmt_index, first_arg)))
#else
#define COOPFS_PRINTF_LIKE(fmt_index, first_arg)
#endif

namespace coopfs {

class SnapshotSampler;
class TraceRecorder;

class ExperimentContext {
 public:
  ExperimentContext(const ExperimentSpec& spec, const BenchOptions& options);
  ~ExperimentContext();

  ExperimentContext(const ExperimentContext&) = delete;
  ExperimentContext& operator=(const ExperimentContext&) = delete;

  const ExperimentSpec& spec() const { return spec_; }
  const BenchOptions& options() const { return options_; }

  // printf into the experiment's stdout buffer. The driver prints the
  // buffer only after the experiment finishes, in registration order.
  void Printf(const char* format, ...) COOPFS_PRINTF_LIKE(2, 3);

  // The standard bench banner ("=== <title>: <what> ===" + workload and
  // configuration lines), byte-identical to the old PrintBanner.
  void Banner(std::uint64_t trace_events);

  // Shared memoized traces; also records the workload in the run manifest.
  const Trace& Sprite();
  const Trace& Auspex();

  // Paper §4.1 defaults: 16 MB clients, 128 MB server, ATM network; warm-up
  // set to the paper's Sprite fraction of `trace_events`. Attaches this
  // context's observability sinks when requested by the options.
  SimulationConfig PaperConfig(std::uint64_t trace_events);

  // Same §4.1 memory sizes with the Auspex warm-up fraction (1/5 of the
  // visible events; the paper warms on 1M of 5M).
  SimulationConfig AuspexConfig(std::uint64_t trace_events);

  // Runs one policy, storing the result in *out. A failure Status names the
  // policy. The result also counts toward the manifest's num_results.
  Status Run(Simulator& simulator, Policy& policy, SimulationResult* out);
  Status Run(Simulator& simulator, PolicyKind kind, SimulationResult* out,
             const PolicyParams& params = {});

  // Fans `jobs` out over RunSimulationsParallel and returns one result per
  // job in input order, failing fast on the first error. Thread count is the
  // context's sweep budget (set by the driver) — forced to 1 when
  // observability sinks are attached, because recorders and samplers are not
  // synchronized across jobs.
  Status RunJobs(const Trace& trace, const std::vector<SimulationJob>& jobs,
                 std::vector<SimulationResult>* out);

  // Records an additional resolved configuration in the manifest (for
  // experiments that derive secondary configs, e.g. sec45's moved-memory
  // layout). Finish() records its own config; only extras need this.
  void RecordConfig(const SimulationConfig& config);

  // Epilogue of every spec: writes the requested exports (event trace,
  // timeseries, profile, metrics document — same order and stdout messages
  // as the old MaybeWriteJson) and records config + exports in the manifest.
  // The overload without arguments is for model-only experiments (fig01,
  // fig03) that have no simulation config or results to export.
  Status Finish(const SimulationConfig& config, const std::vector<SimulationResult>& results);
  Status Finish();

  // Sweep thread budget for RunJobs; 0 = hardware concurrency.
  void set_sweep_threads(std::size_t threads) { sweep_threads_ = threads; }

  // The buffered stdout produced so far.
  const std::string& output() const { return output_; }

  // The manifest accumulated by Sprite()/Auspex()/Run/Finish. The driver
  // fills in the run-level fields (threads, wall time, command) and writes it.
  const RunManifest& manifest() const { return manifest_; }
  RunManifest& manifest() { return manifest_; }

 private:
  TraceRecorder* Recorder();
  SnapshotSampler* Sampler();
  void NoteWorkload(const char* workload);
  Status WriteExports(const std::vector<SimulationResult>& results);

  const ExperimentSpec& spec_;
  BenchOptions options_;
  std::string output_;
  RunManifest manifest_;
  std::vector<SimulationConfig> extra_configs_;
  std::size_t sweep_threads_ = 0;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<SnapshotSampler> sampler_;
  bool finished_ = false;
};

// Renders one SimulationResult row ("algorithm, avg time, speedup, level
// fractions") used by several figures.
std::vector<std::string> ResultRow(const SimulationResult& result,
                                   const SimulationResult& baseline);

}  // namespace coopfs

#endif  // COOPFS_SRC_EXP_CONTEXT_H_
