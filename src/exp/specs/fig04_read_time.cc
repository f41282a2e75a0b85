// Figure 4: average block read time per algorithm, segmented by the level
// that satisfied each read, plus the headline speedups (paper: Direct 1.05,
// Greedy 1.22, Central 1.64, N-Chance 1.73, best case ~1.77).
#include "src/common/format.h"
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
  for (PolicyKind kind : Figure4PolicyKinds()) {
    results.emplace_back();
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, kind, &results.back()));
  }
  const SimulationResult& baseline = results.front();

  TableFormatter table({"Algorithm", "Avg read", "Speedup", "Local t", "Remote t", "Server t",
                        "Disk t"});
  for (const SimulationResult& result : results) {
    const double reads = static_cast<double>(result.reads);
    table.AddRow({result.policy_name, FormatDouble(result.AverageReadTime(), 0) + " us",
                  FormatDouble(result.SpeedupOver(baseline), 2) + "x",
                  FormatDouble(result.level_time_us[0] / reads, 0) + " us",
                  FormatDouble(result.level_time_us[1] / reads, 0) + " us",
                  FormatDouble(result.level_time_us[2] / reads, 0) + " us",
                  FormatDouble(result.level_time_us[3] / reads, 0) + " us"});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported speedups: Direct 1.05x, Greedy 1.22x, Central 1.64x, "
             "N-Chance 1.73x (both coordinated algorithms within 10%% of best case)\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec Fig04ReadTimeSpec() {
  ExperimentSpec spec;
  spec.name = "fig04_read_time";
  spec.title = "Figure 4";
  spec.what = "average block read time by algorithm";
  spec.description = "average block read time by algorithm";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
