#include "perfbench/src/probes.h"

#include <algorithm>
#include <memory>
#include <span>

#include "src/engine/cache_engine.h"
#include "src/sim/validation.h"

namespace perfbench {

using coopfs::CacheLevel;
using coopfs::EventType;
using coopfs::SimulationResult;

coopfs::SimulationConfig PaperConfig(std::uint32_t clients, std::uint64_t warmup_events,
                                     std::uint64_t seed) {
  coopfs::SimulationConfig config;
  config.WithClientCacheMiB(16).WithServerCacheMiB(128);
  config.num_clients = clients;
  config.warmup_events = warmup_events;
  config.seed = seed;
  config.metrics_detail = coopfs::MetricsDetail::kFull;
  return config;
}

IndexStats ReadIndexStats(coopfs::SimContext& context) {
  IndexStats stats;
  const coopfs::FlatMapStats holders = context.directory().HoldersIndexStats();
  stats.dir_probe_avg = holders.avg_probe_length;
  stats.dir_probe_max = static_cast<double>(holders.max_probe_length);
  stats.rehashes = holders.rehashes + context.directory().FileIndexStats().rehashes;
  for (coopfs::ClientId c = 0; c < context.num_clients(); ++c) {
    if (const coopfs::BlockCache* cache = context.client_cache_if_materialized(c)) {
      stats.rehashes += cache->IndexStats().rehashes;
    }
  }
  for (std::uint32_t s = 0; s < context.num_servers(); ++s) {
    stats.rehashes += context.server_cache(s).IndexStats().rehashes;
  }
  return stats;
}

CheckedRun RunChecked(coopfs::Simulator& simulator, coopfs::PolicyKind kind,
                      std::uint64_t expected_events, const std::string& label, Report& report,
                      IndexStats* index) {
  CheckedRun run;
  const auto policy = coopfs::MakePolicy(kind);
  coopfs::Status consistency;
  double inspect_seconds = 0.0;
  const auto start = Clock::now();
  coopfs::Result<SimulationResult> result =
      simulator.Run(*policy, [&](coopfs::SimContext& context) {
        const auto inspect_start = Clock::now();
        consistency = coopfs::CheckCacheDirectoryConsistency(context);
        if (index != nullptr) {
          *index = ReadIndexStats(context);
        }
        inspect_seconds = SecondsSince(inspect_start);
      });
  // The checks are the benchmark's, not the replay's: leave them out.
  run.seconds = SecondsSince(start) - inspect_seconds;
  if (!result.ok()) {
    report.Attempt(result.status(), label);
    return run;
  }
  run.result = *std::move(result);
  const std::uint64_t counted = run.result.level_counts.Total();
  if (!consistency.ok()) {
    report.Attempt(consistency, label + " cache/directory consistency");
  } else if (run.result.counters.events_replayed != expected_events) {
    report.Attempt(false, label + " replayed " +
                              std::to_string(run.result.counters.events_replayed) + " of " +
                              std::to_string(expected_events) + " events");
  } else if (counted != run.result.reads || counted == 0) {
    report.Attempt(false, label + " level counts do not sum to the counted reads");
  } else {
    report.Attempt(true, label);
    run.ok = true;
  }
  return run;
}

bool SameOutputs(const SimulationResult& a, const SimulationResult& b) {
  for (std::size_t level = 0; level < coopfs::kNumCacheLevels; ++level) {
    if (a.level_counts.Get(level) != b.level_counts.Get(level) ||
        a.level_time_us[level] != b.level_time_us[level]) {
      return false;
    }
  }
  return a.counters == b.counters &&
         a.server_load.TotalUnits() == b.server_load.TotalUnits() && a.reads == b.reads;
}

namespace {

// Number of recent (client, file) read pairs kept for the ReadAttr/Evict
// top-up probe, used when the replayed events contain no such calls.
constexpr std::size_t kProbePairs = 20'000;

}  // namespace

EngineReplay TimedEngineReplay(const coopfs::SimulationConfig& config, std::uint32_t clients,
                               coopfs::PolicyKind kind, coopfs::EventSource& source) {
  EngineReplay replay;
  const auto policy = coopfs::MakePolicy(kind);
  coopfs::CacheEngine engine(config, clients, *policy);
  coopfs::SimContext& context = engine.context();
  std::vector<coopfs::TraceEvent> chunk(4096);
  // Ring of the last kProbePairs reads.
  std::vector<std::pair<coopfs::ClientId, coopfs::FileId>> recent_reads(kProbePairs);
  std::size_t reads = 0;
  std::uint64_t index = 0;
  source.Reset();
  for (std::size_t n = source.NextChunk(std::span<coopfs::TraceEvent>(chunk)); n > 0;
       n = source.NextChunk(std::span<coopfs::TraceEvent>(chunk))) {
    for (std::size_t i = 0; i < n; ++i, ++index) {
      const coopfs::TraceEvent& event = chunk[i];
      context.set_now(event.timestamp);
      context.set_accounting(index >= config.warmup_events);
      context.CountEvent();
      engine.Tick();
      const auto start = Clock::now();
      switch (event.type) {
        case EventType::kRead: {
          const coopfs::EngineOutcome outcome = engine.Lookup(event.client, event.block);
          replay.lookup_ns.push_back(NanosSince(start));
          if (context.accounting()) {
            ++replay.level_counts[static_cast<std::size_t>(outcome.read.level)];
          }
          recent_reads[reads++ % kProbePairs] = {event.client, event.block.file};
          break;
        }
        case EventType::kWrite:
          engine.Admit(event.client, event.block);
          replay.admit_ns.push_back(NanosSince(start));
          break;
        case EventType::kDelete:
          engine.Evict(event.client, event.block.file);
          replay.delete_ns.push_back(NanosSince(start));
          break;
        case EventType::kReadAttr:
          engine.ReadAttr(event.client, event.block.file);
          replay.readattr_ns.push_back(NanosSince(start));
          break;
        case EventType::kReboot:
          engine.Reboot(event.client);
          break;
      }
    }
  }
  replay.counters = context.counters();
  recent_reads.resize(std::min(reads, kProbePairs));
  // Top-up probes after the replay (the counts above are final): time
  // ReadAttr and then Evict over the files of the last reads when the
  // events issued none of those calls, so both entry points are measured
  // on every workload.
  if (replay.readattr_ns.empty()) {
    for (const auto& [client, file] : recent_reads) {
      const auto start = Clock::now();
      engine.ReadAttr(client, file);
      replay.readattr_ns.push_back(NanosSince(start));
    }
  }
  if (replay.delete_ns.empty()) {
    for (const auto& [client, file] : recent_reads) {
      const auto start = Clock::now();
      engine.Evict(client, file);
      replay.delete_ns.push_back(NanosSince(start));
    }
  }
  return replay;
}

void ReportEngineReplay(EngineReplay& replay, const SimulationResult& reference,
                        Report& report) {
  bool same_levels = true;
  for (std::size_t level = 0; level < coopfs::kNumCacheLevels; ++level) {
    same_levels = same_levels && replay.level_counts[level] == reference.level_counts.Get(level);
  }
  report.Attempt(same_levels && replay.counters == reference.counters,
                 "engine replay reproduces Simulator::Run level counts and counters");
  report.Metric("engine.lookup_ns_p50", Quantile(replay.lookup_ns, 0.50), "ns");
  report.Metric("engine.lookup_ns_p99", Quantile(replay.lookup_ns, 0.99), "ns");
  report.Metric("engine.admit_ns_p50", Quantile(replay.admit_ns, 0.50), "ns");
  report.Metric("engine.admit_ns_p99", Quantile(replay.admit_ns, 0.99), "ns");
  report.Metric("engine.readattr_ns_mean", Mean(replay.readattr_ns), "ns");
  report.Metric("engine.delete_ns_mean", Mean(replay.delete_ns), "ns");
}

namespace {

void Accumulate(const coopfs::Profiler::Node& node, const std::string& name, bool inside,
                SpanTotals& totals) {
  const bool match = node.name == name;
  if (match) {
    totals.count += node.count;
    totals.self_ns += node.SelfNs();
    if (!inside) {
      totals.total_ns += node.total_ns;
    }
  }
  for (const coopfs::Profiler::Node& child : node.children) {
    Accumulate(child, name, inside || match, totals);
  }
}

}  // namespace

SpanTotals TotalsOf(const std::vector<coopfs::Profiler::Node>& roots, const std::string& name) {
  SpanTotals totals;
  for (const coopfs::Profiler::Node& root : roots) {
    Accumulate(root, name, false, totals);
  }
  return totals;
}

void BeginProfile() {
  coopfs::Profiler::Reset();
  coopfs::Profiler::Enable(true);
}

std::vector<coopfs::Profiler::Node> EndProfile() {
  std::vector<coopfs::Profiler::Node> roots = coopfs::Profiler::Snapshot();
  coopfs::Profiler::Enable(false);
  coopfs::Profiler::Reset();
  return roots;
}

void ReportOutputs(const SimulationResult& result, Report& report) {
  report.Simulated("out.local_frac", result.LevelFraction(CacheLevel::kLocalMemory), "ratio");
  report.Simulated("out.remote_frac", result.LevelFraction(CacheLevel::kRemoteClient), "ratio");
  report.Simulated("out.server_frac", result.LevelFraction(CacheLevel::kServerMemory), "ratio");
  report.Simulated("out.disk_frac", result.LevelFraction(CacheLevel::kServerDisk), "ratio");
  report.Simulated("out.avg_read_us", result.AverageReadTime(), "us");
  report.Simulated("out.server_load_units", static_cast<double>(result.server_load.TotalUnits()),
                   "count");
}

void ReportCounters(const coopfs::SimCounters& counters, Report& report) {
  report.Simulated("core.recirculations", static_cast<double>(counters.recirculations), "count");
  report.Simulated("core.remote_forwards", static_cast<double>(counters.remote_forwards), "count");
  report.Simulated("core.invalidations", static_cast<double>(counters.invalidations), "count");
  report.Simulated("cache.directory_ops_per_event",
                   counters.events_replayed == 0
                       ? 0.0
                       : static_cast<double>(counters.directory_ops) /
                             static_cast<double>(counters.events_replayed),
                   "ratio");
}

void ReportIndexStats(const IndexStats& index, Report& report) {
  report.Metric("cache.dir_probe_avg", index.dir_probe_avg, "slots");
  report.Metric("cache.dir_probe_max", index.dir_probe_max, "slots");
  report.Metric("cache.rehashes", static_cast<double>(index.rehashes), "count");
}

}  // namespace perfbench
