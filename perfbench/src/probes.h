// Layer probes for the traced run, all driven from outside the library
// through public entry points: a call-timed replay through a single-shard
// CacheEngine, profiler span totals, hash-index statistics read by the
// Simulator's end-of-run inspector, and the checks every replay passes.
#ifndef COOPFS_PERFBENCH_SRC_PROBES_H_
#define COOPFS_PERFBENCH_SRC_PROBES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/perfbench.h"
#include "src/common/profiler.h"
#include "src/common/status.h"
#include "src/core/policy_factory.h"
#include "src/sim/config.h"
#include "src/sim/context.h"
#include "src/sim/counters.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/event_source.h"

namespace perfbench {

// Paper §4.1 cache sizes (16 MiB per client, 128 MiB server) with every
// observer off and metrics_detail = full.
coopfs::SimulationConfig PaperConfig(std::uint32_t clients, std::uint64_t warmup_events,
                                     std::uint64_t seed);

// Hash-index statistics of one end-of-run context.
struct IndexStats {
  double dir_probe_avg = 0.0;       // Directory holders index, mean displacement.
  double dir_probe_max = 0.0;       // Directory holders index, worst displacement.
  std::uint64_t rehashes = 0;       // Directory + every client/server cache index.
};
IndexStats ReadIndexStats(coopfs::SimContext& context);

// One checked Simulator::Run: status OK, CheckCacheDirectoryConsistency
// through the end-of-run inspector, every event replayed, level counts that
// sum to the counted reads. `index` (optional) receives the index stats.
// `seconds` is the Run call's wall time minus the inspector's.
struct CheckedRun {
  bool ok = false;
  double seconds = 0.0;
  coopfs::SimulationResult result;
};
CheckedRun RunChecked(coopfs::Simulator& simulator, coopfs::PolicyKind kind,
                      std::uint64_t expected_events, const std::string& label,
                      Report& report, IndexStats* index = nullptr);

// True when two replays of the same input agree on every simulated output.
bool SameOutputs(const coopfs::SimulationResult& a, const coopfs::SimulationResult& b);

// Replays `source` through a single-shard CacheEngine exactly as
// Simulator::Run sequences it, timing every Lookup/Admit/ReadAttr/Evict call.
struct EngineReplay {
  std::vector<std::uint32_t> lookup_ns;
  std::vector<std::uint32_t> admit_ns;
  std::vector<std::uint32_t> readattr_ns;
  std::vector<std::uint32_t> delete_ns;
  std::array<std::uint64_t, coopfs::kNumCacheLevels> level_counts{};
  coopfs::SimCounters counters;
};
EngineReplay TimedEngineReplay(const coopfs::SimulationConfig& config, std::uint32_t clients,
                               coopfs::PolicyKind kind, coopfs::EventSource& source);

// Fails the report unless the engine replay reproduced `reference`'s
// per-level counts and counters, then adds the engine.* metrics.
void ReportEngineReplay(EngineReplay& replay, const coopfs::SimulationResult& reference,
                        Report& report);

// Totals of every span named `name` in a profiler snapshot. total_ns counts
// only outermost occurrences, so a span nested in itself is not counted twice.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
SpanTotals TotalsOf(const std::vector<coopfs::Profiler::Node>& roots, const std::string& name);

// Starts/stops a profiled section: reset + enable, then snapshot + disable.
void BeginProfile();
std::vector<coopfs::Profiler::Node> EndProfile();

// Simulated outputs (out.*) of one replay result, as Report::Simulated.
void ReportOutputs(const coopfs::SimulationResult& result, Report& report);

// Replay counters (core.* counts, cache.directory_ops_per_event), as
// Report::Simulated.
void ReportCounters(const coopfs::SimCounters& counters, Report& report);

void ReportIndexStats(const IndexStats& index, Report& report);

}  // namespace perfbench

#endif  // COOPFS_PERFBENCH_SRC_PROBES_H_
