// Extension ablation: workstation churn. The paper's traces cover stable
// machines; real LANs reboot. A reboot destroys the rebooting client's
// cache — including any singlets it was cooperatively holding — so the
// algorithms that depend on remote memory should degrade gracefully as the
// reboot rate rises, and the baseline (which never depends on peers)
// should degrade least.
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"
#include "src/trace/workload.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const BenchOptions& options = ctx.options();
  ctx.Printf("=== Extension: client churn (reboots) ===\n");
  ctx.Printf("workload: %llu events, seed %llu; reboot rate swept per client per trace\n\n",
             static_cast<unsigned long long>(options.events),
             static_cast<unsigned long long>(options.seed));

  TableFormatter table({"Reboots/client", "Baseline", "Greedy", "Central", "N-Chance",
                        "N-Chance coop loss"});
  double no_churn_nchance = 0.0;
  double no_churn_base = 0.0;
  SimulationConfig base_config;
  std::vector<SimulationResult> results;
  for (const double rate : {0.0, 2.0, 8.0, 32.0, 128.0}) {
    WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
    workload.num_events = options.events;
    workload.mean_reboots_per_client = rate;
    const Trace trace = GenerateWorkload(workload);
    SimulationConfig config = ctx.PaperConfig(trace.size());
    Simulator simulator(config, &trace);

    SimulationResult base;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kBaseline, &base));
    SimulationResult greedy;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kGreedy, &greedy));
    SimulationResult central;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kCentralCoord, &central));
    SimulationResult nchance;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kNChance, &nchance));
    if (rate == 0.0) {
      no_churn_nchance = nchance.AverageReadTime();
      no_churn_base = base.AverageReadTime();
      base_config = config;
    } else {
      ctx.RecordConfig(config);
    }
    results.push_back(base);
    results.push_back(greedy);
    results.push_back(central);
    results.push_back(nchance);
    // How much of N-Chance's cooperative advantage over the baseline
    // survives the churn?
    const double advantage =
        (base.AverageReadTime() - nchance.AverageReadTime()) /
        (no_churn_base - no_churn_nchance);
    table.AddRow({FormatDouble(rate, 0), FormatDouble(base.AverageReadTime(), 0) + " us",
                  FormatDouble(greedy.AverageReadTime(), 0) + " us",
                  FormatDouble(central.AverageReadTime(), 0) + " us",
                  FormatDouble(nchance.AverageReadTime(), 0) + " us",
                  FormatPercent(1.0 - advantage, 0)});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("expected: cooperative benefit erodes with churn but degrades gracefully; the\n"
             "baseline suffers only its own clients' cold caches\n");
  return ctx.Finish(base_config, results);
}

}  // namespace

ExperimentSpec ExtChurnSpec() {
  ExperimentSpec spec;
  spec.name = "ext_churn";
  spec.title = "Extension: client churn (reboots)";
  spec.what = "cooperative caching under workstation reboots";
  spec.description = "cooperative caching under workstation reboots (custom traces)";
  spec.trace = TraceKind::kCustom;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
