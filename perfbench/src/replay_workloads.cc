// The two trace-replay workloads.
//
// sprite_long: single-threaded N-Chance replay of the streamed Sprite-like
// trace (generation fused into replay), long enough to sit past the
// N-Chance eviction-scan cliff.
//
// auspex_sweep: the Figure 4 policy set over one materialized Auspex-like
// trace (237 clients, snooped, ReadAttr-heavy) through
// RunSimulationsParallel on one worker per core.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "perfbench/src/perfbench.h"
#include "perfbench/src/probes.h"
#include "src/core/policy_factory.h"
#include "src/core/sweep.h"
#include "src/trace/event_source.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

namespace perfbench {

using coopfs::PolicyKind;
using coopfs::SimulationResult;

namespace {

constexpr std::uint64_t kSpriteEvents = 2'000'000;
constexpr std::uint32_t kSpriteClients = 42;
constexpr std::uint64_t kAuspexEvents = 2'000'000;
constexpr std::uint32_t kAuspexClients = 237;

// Traces per untraced sprite_long run. Replay speed differs from trace to
// trace (how deep the N-Chance cliff gets depends on the trace), so a run
// alternates between two traces of its seed, one replay per repetition.
// One replay (2M events, several seconds) keeps repetitions short enough
// that several fit in a run.
constexpr int kSpriteTraces = 2;

// Set-up repetitions in an untraced run; set-up time is their median.
constexpr int kSpriteSetupRepeats = 5;
constexpr int kAuspexSetupRepeats = 3;

struct DrainStats {
  std::uint64_t events = 0;
  std::uint64_t readattrs = 0;
};

DrainStats Drain(coopfs::EventSource& source) {
  DrainStats stats;
  std::vector<coopfs::TraceEvent> chunk(4096);
  source.Reset();
  for (std::size_t n = source.NextChunk(std::span<coopfs::TraceEvent>(chunk)); n > 0;
       n = source.NextChunk(std::span<coopfs::TraceEvent>(chunk))) {
    stats.events += n;
    for (std::size_t i = 0; i < n; ++i) {
      stats.readattrs += chunk[i].type == coopfs::EventType::kReadAttr ? 1 : 0;
    }
  }
  return stats;
}

// One sprite_long trace: its streaming source, drained once at set-up.
struct SpriteTrace {
  std::string prefix;  // Output key prefix, "t<index>".
  std::unique_ptr<coopfs::EventSource> source;
  DrainStats drain;
  coopfs::SimulationConfig config;
};

void DescribeReplay(const std::string& policies, std::uint64_t events, std::uint32_t clients,
                    std::uint32_t threads, Report& report) {
  report.Context("policies", policies);
  report.Context("events", static_cast<double>(events));
  report.Context("clients", clients);
  report.Context("client_cache_mib", 16);
  report.Context("server_cache_mib", 128);
  report.Context("threads", threads);
  report.Context("shards", 1);
}

void ReportProfile(const std::vector<coopfs::Profiler::Node>& roots, std::uint64_t events,
                   Report& report) {
  const SpanTotals evict = TotalsOf(roots, "policy/evict");
  const SpanTotals run = TotalsOf(roots, "sim/run");
  const auto per_event = [events](double value) {
    return events == 0 ? 0.0 : value / static_cast<double>(events);
  };
  report.Simulated("core.evictions_per_kevent",
                   per_event(static_cast<double>(evict.count) * 1e3), "count");
  report.Metric("core.evict_ns_mean",
                evict.count == 0 ? 0.0
                                 : static_cast<double>(evict.total_ns) /
                                       static_cast<double>(evict.count),
                "ns");
  report.Metric("core.evict_share",
                run.total_ns == 0 ? 0.0
                                  : static_cast<double>(evict.total_ns) /
                                        static_cast<double>(run.total_ns),
                "ratio");
  report.Metric("loop.self_ns_per_op", per_event(static_cast<double>(run.self_ns)), "ns");
}

}  // namespace

void RunSpriteLong(const Options& options, Report& report) {
  // Set-up: build each trace's streaming source and drain it once, which
  // yields the exact event count (the generator may overshoot its target by
  // a final burst) and the generation cost the fused replay pays.
  const int traces = options.trace ? 1 : kSpriteTraces;
  std::vector<SpriteTrace> inputs(traces);
  std::vector<double> setup_seconds;
  for (int i = 0; i < (options.trace ? 1 : kSpriteSetupRepeats); ++i) {
    const auto start = Clock::now();
    for (int t = 0; t < traces; ++t) {
      coopfs::WorkloadConfig workload =
          coopfs::SpriteWorkloadConfig(options.seed * kSpriteTraces + t);
      workload.num_events = options.size != 0 ? options.size : kSpriteEvents;
      inputs[t].source = coopfs::MakeWorkloadEventSource(workload);
      inputs[t].drain = Drain(*inputs[t].source);
    }
    setup_seconds.push_back(SecondsSince(start));
  }
  std::uint64_t events = 0;
  for (int t = 0; t < traces; ++t) {
    SpriteTrace& input = inputs[t];
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "t%d", t);
    input.prefix = prefix;
    input.config = PaperConfig(kSpriteClients, coopfs::SpriteWarmupEvents(input.drain.events),
                               options.seed);
    report.Output(input.prefix + ".events", static_cast<double>(input.drain.events));
    events += input.drain.events;
  }
  DescribeReplay("nchance", events, kSpriteClients, 1, report);

  if (!options.trace) {
    // Repetition i replays trace i % traces. Every trace is replayed at
    // least twice, so the median over repetitions weighs the traces alike
    // and each trace's determinism is checked.
    std::vector<std::optional<SimulationResult>> first(traces);
    int next = 0;
    const MeasuredPhase phase = Measure(options.seconds, 0, [&] {
      const int t = next++ % traces;
      SpriteTrace& input = inputs[t];
      coopfs::Simulator simulator(input.config, input.source.get());
      CheckedRun run = RunChecked(simulator, PolicyKind::kNChance, input.drain.events,
                                  input.prefix + " nchance replay", report);
      if (run.ok && !first[t]) {
        first[t] = std::move(run.result);
        report.AddReplayOutputs(input.prefix + ".nchance", *first[t]);
      } else if (run.ok) {
        report.Attempt(SameOutputs(*first[t], run.result),
                       input.prefix + " nchance replay is deterministic");
      }
      return Repetition{static_cast<double>(input.drain.events), run.seconds};
    }, 2 * static_cast<std::size_t>(traces));
    ReportEndToEnd(phase, setup_seconds, report);
    return;
  }

  // The traced run probes the first trace only.
  SpriteTrace& input = inputs.front();
  events = input.drain.events;
  const coopfs::SimulationConfig& config = input.config;
  coopfs::EventSource& source = *input.source;
  report.Metric("trace.gen_ns_per_event", setup_seconds.front() * 1e9 / static_cast<double>(events),
                "ns");
  report.Simulated("trace.readattr_share",
                   static_cast<double>(input.drain.readattrs) / static_cast<double>(events),
                   "ratio");

  coopfs::Simulator simulator(config, &source);
  IndexStats index;
  const CheckedRun plain =
      RunChecked(simulator, PolicyKind::kNChance, events, "nchance replay", report, &index);
  report.AddReplayOutputs(input.prefix + ".nchance", plain.result);

  BeginProfile();
  const CheckedRun profiled =
      RunChecked(simulator, PolicyKind::kNChance, events, "profiled nchance replay", report);
  const std::vector<coopfs::Profiler::Node> roots = EndProfile();
  report.Attempt(SameOutputs(plain.result, profiled.result),
                 "profiled replay matches the plain replay");

  const CheckedRun greedy =
      RunChecked(simulator, PolicyKind::kGreedy, events, "greedy replay", report);

  EngineReplay engine = TimedEngineReplay(config, kSpriteClients, PolicyKind::kNChance, source);
  ReportEngineReplay(engine, plain.result, report);

  ReportProfile(roots, events, report);
  report.Metric("core.nchance_over_greedy", plain.seconds / greedy.seconds, "ratio");
  ReportCounters(plain.result.counters, report);
  ReportIndexStats(index, report);
  ReportOutputs(plain.result, report);
  // No sweep and no serve storm here: those layers report 0.
  report.Metric("sweep.parallel_efficiency", 0.0, "ratio");
  report.Metric("sweep.max_job_s", plain.seconds, "s");
  report.Metric("serve.scaling_3t_over_1t", 0.0, "ratio");
  report.Metric("obs.trace_overhead", profiled.seconds / plain.seconds, "ratio");
}

void RunAuspexSweep(const Options& options, Report& report) {
  coopfs::WorkloadConfig workload = coopfs::AuspexWorkloadConfig(options.seed);
  workload.num_events = options.size != 0 ? options.size : kAuspexEvents;

  // Set-up: generate the materialized trace the sweep shares read-only.
  std::vector<double> setup_seconds;
  coopfs::Trace trace;
  for (int i = 0; i < (options.trace ? 1 : kAuspexSetupRepeats); ++i) {
    trace = coopfs::Trace();  // Free the previous copy: one trace resident.
    const auto start = Clock::now();
    trace = coopfs::GenerateWorkload(workload);
    setup_seconds.push_back(SecondsSince(start));
  }
  const std::uint64_t events = trace.size();
  const coopfs::SimulationConfig config =
      PaperConfig(kAuspexClients, coopfs::AuspexWarmupEvents(events), options.seed);

  std::vector<coopfs::SimulationJob> jobs;
  std::string policies;
  for (PolicyKind kind : coopfs::Figure4PolicyKinds()) {
    jobs.push_back(coopfs::SimulationJob{config, kind, coopfs::PolicyParams{}});
    policies += std::string(policies.empty() ? "" : ",") + coopfs::PolicyKindName(kind);
  }
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), jobs.size());
  DescribeReplay(policies, events, kAuspexClients, static_cast<std::uint32_t>(workers), report);
  report.Output("events", static_cast<double>(events));
  const double sweep_events = static_cast<double>(events * jobs.size());

  // Checks every sweep result; the first sweep's results become the outputs
  // later sweeps (and serial replays) must reproduce.
  std::vector<SimulationResult> first;
  const auto check_sweep = [&](std::vector<coopfs::Result<SimulationResult>>& results) {
    for (std::size_t j = 0; j < results.size(); ++j) {
      const std::string label = std::string("sweep job ") + coopfs::PolicyKindName(jobs[j].kind);
      if (!results[j].ok()) {
        report.Attempt(results[j].status(), label);
        continue;
      }
      const SimulationResult& result = *results[j];
      const bool complete = result.counters.events_replayed == events &&
                            result.level_counts.Total() == result.reads && result.reads > 0;
      if (first.size() < jobs.size()) {
        report.Attempt(complete, label + " replayed every event");
        first.push_back(result);
        report.AddReplayOutputs(coopfs::PolicyKindName(jobs[j].kind), result);
      } else {
        report.Attempt(complete && SameOutputs(first[j], result), label + " is deterministic");
      }
    }
  };
  const auto sweep = [&] {
    const auto start = Clock::now();
    std::vector<coopfs::Result<SimulationResult>> results =
        coopfs::RunSimulationsParallel(trace, jobs, workers);
    const double seconds = SecondsSince(start);
    check_sweep(results);
    return seconds;
  };
  const auto job_of = [&jobs](PolicyKind kind) {
    return static_cast<std::size_t>(
        std::find_if(jobs.begin(), jobs.end(),
                     [kind](const coopfs::SimulationJob& job) { return job.kind == kind; }) -
        jobs.begin());
  };
  const std::size_t nchance_job = job_of(PolicyKind::kNChance);

  if (!options.trace) {
    // One untimed warm-up sweep: the first sweep of a process pays page
    // faults for every worker's arena.
    const MeasuredPhase phase =
        Measure(options.seconds, 1, [&] { return Repetition{sweep_events, sweep()}; });
    // Outside the measured phase: the sweep exposes no end-of-run inspector,
    // so the N-Chance job is replayed serially through Simulator::Run to run
    // the cache/directory consistency check and must match the sweep.
    coopfs::Simulator simulator(config, &trace);
    const CheckedRun serial =
        RunChecked(simulator, PolicyKind::kNChance, events, "serial nchance replay", report);
    report.Attempt(first.size() == jobs.size() && SameOutputs(first[nchance_job], serial.result),
                   "serial nchance replay matches the sweep");
    ReportEndToEnd(phase, setup_seconds, report);
    return;
  }

  report.Metric("trace.gen_ns_per_event", setup_seconds.front() * 1e9 / static_cast<double>(events),
                "ns");
  std::uint64_t readattrs = 0;
  for (const coopfs::TraceEvent& event : trace) {
    readattrs += event.type == coopfs::EventType::kReadAttr ? 1 : 0;
  }
  report.Simulated("trace.readattr_share",
                   static_cast<double>(readattrs) / static_cast<double>(events), "ratio");

  sweep();  // Untimed warm-up, as in the untraced run.
  const double plain_seconds = sweep();
  BeginProfile();
  const double profiled_seconds = sweep();
  const std::vector<coopfs::Profiler::Node> roots = EndProfile();

  // Serial replays of every job, with the end-of-run inspector: the
  // per-job times behind the sweep's parallel efficiency.
  coopfs::Simulator simulator(config, &trace);
  double serial_total = 0.0;
  double max_job = 0.0;
  std::vector<CheckedRun> serial(jobs.size());
  IndexStats index;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string label = std::string("serial ") + coopfs::PolicyKindName(jobs[j].kind);
    serial[j] = RunChecked(simulator, jobs[j].kind, events, label, report,
                           j == nchance_job ? &index : nullptr);
    report.Attempt(first.size() == jobs.size() && SameOutputs(first[j], serial[j].result),
                   label + " matches the sweep");
    serial_total += serial[j].seconds;
    max_job = std::max(max_job, serial[j].seconds);
  }
  const SimulationResult& nchance = serial[nchance_job].result;

  coopfs::MaterializedEventSource source(&trace);
  EngineReplay engine = TimedEngineReplay(config, kAuspexClients, PolicyKind::kNChance, source);
  ReportEngineReplay(engine, nchance, report);

  ReportProfile(roots, events * jobs.size(), report);
  report.Metric("core.nchance_over_greedy",
                serial[nchance_job].seconds / serial[job_of(PolicyKind::kGreedy)].seconds,
                "ratio");
  ReportCounters(nchance.counters, report);
  ReportIndexStats(index, report);
  ReportOutputs(nchance, report);
  report.Metric("sweep.parallel_efficiency",
                serial_total / (static_cast<double>(workers) * plain_seconds), "ratio");
  report.Metric("sweep.max_job_s", max_job, "s");
  report.Metric("serve.scaling_3t_over_1t", 0.0, "ratio");
  report.Metric("obs.trace_overhead", profiled_seconds / plain_seconds, "ratio");
}

}  // namespace perfbench
