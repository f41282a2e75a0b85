// Figure 10: N-Chance response time vs. the recirculation count n.
// Paper: the big win is n = 0 -> 1; n = 1 -> 2 adds a little; beyond that,
// nothing. n = 0 is exactly Greedy Forwarding.
#include "src/common/format.h"
#include "src/core/nchance.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const Trace& trace = ctx.Sprite();
  const SimulationConfig config = ctx.PaperConfig(trace.size());
  ctx.Banner(trace.size());

  Simulator simulator(config, &trace);
  SimulationResult baseline;
  COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kBaseline, &baseline));

  std::vector<SimulationResult> results;
  results.push_back(baseline);
  TableFormatter table({"n", "Avg read", "Speedup", "Disk time", "Other time", "Disk rate"});
  for (int n : {0, 1, 2, 3, 4, 6, 8}) {
    NChancePolicy policy(n);
    SimulationResult result;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, policy, &result));
    results.push_back(result);
    const double reads = static_cast<double>(result.reads);
    const double disk_time = result.level_time_us[3] / reads;
    table.AddRow({std::to_string(n), FormatDouble(result.AverageReadTime(), 0) + " us",
                  FormatDouble(result.SpeedupOver(baseline), 2) + "x",
                  FormatDouble(disk_time, 0) + " us",
                  FormatDouble(result.AverageReadTime() - disk_time, 0) + " us",
                  FormatPercent(result.DiskRate())});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: largest improvement 0->1; small gain 1->2; flat beyond "
             "(the study uses n = 2)\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec Fig10NChanceNSpec() {
  ExperimentSpec spec;
  spec.name = "fig10_nchance_n";
  spec.title = "Figure 10";
  spec.what = "N-Chance response vs. recirculation count n";
  spec.description = "N-Chance response vs. recirculation count n";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
