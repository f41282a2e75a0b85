// Figure 9: Centrally Coordinated Caching response time vs. the fraction of
// each client cache that is centrally coordinated. Paper: a response-time
// plateau when 40-90% of client memory is coordinated; 0% = baseline.
#include "src/common/format.h"
#include "src/core/central_coord.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const Trace& trace = ctx.Sprite();
  const SimulationConfig config = ctx.PaperConfig(trace.size());
  ctx.Banner(trace.size());

  Simulator simulator(config, &trace);
  std::vector<SimulationResult> results;
  TableFormatter table({"Coordinated", "Avg read", "Disk time", "Other time", "Local hit"});
  for (int percent = 0; percent <= 100; percent += 10) {
    SimulationResult result;
    if (percent == 0) {
      COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kBaseline, &result));
    } else {
      CentralCoordPolicy policy(percent / 100.0);
      COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, policy, &result));
    }
    results.push_back(result);
    const double reads = static_cast<double>(result.reads);
    const double disk_time = result.level_time_us[3] / reads;
    table.AddRow({std::to_string(percent) + "%",
                  FormatDouble(result.AverageReadTime(), 0) + " us",
                  FormatDouble(disk_time, 0) + " us",
                  FormatDouble(result.AverageReadTime() - disk_time, 0) + " us",
                  FormatPercent(result.LevelFraction(CacheLevel::kLocalMemory))});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: response-time plateau for 40-90%% coordinated; the study "
             "uses 80%%\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec Fig09CentralFractionSpec() {
  ExperimentSpec spec;
  spec.name = "fig09_central_fraction";
  spec.title = "Figure 9";
  spec.what = "Central Coordination response vs. coordinated fraction";
  spec.description = "Central Coordination response vs. coordinated fraction";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
