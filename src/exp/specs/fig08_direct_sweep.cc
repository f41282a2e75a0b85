// Figure 8: Direct Client Cooperation speedup as a function of each
// client's recruited remote cache size (paper: <1% improvement at 4 MB,
// ~5% at 16 MB, ~40% only at ~64 MB), plus the §4.2.1 what-if: only the
// most active 10% of clients recruit remote memory (paper: 85% of the
// maximum Direct benefit).
#include <algorithm>

#include "src/common/format.h"
#include "src/core/direct_coop.h"
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

  std::vector<SimulationResult> exported;
  exported.push_back(baseline);
  TableFormatter table({"Remote cache / client", "Avg read", "Speedup"});
  double max_speedup = 1.0;
  for (std::size_t mib : {0, 4, 8, 16, 32, 64, 128}) {
    SimulationResult result = baseline;  // 0 MB remote cache == baseline.
    if (mib != 0) {
      DirectCoopPolicy policy(BytesToBlocks(MiB(mib)));
      COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, policy, &result));
      exported.push_back(result);
    }
    const double speedup = result.SpeedupOver(baseline);
    max_speedup = std::max(max_speedup, speedup);
    table.AddRow({std::to_string(mib) + " MB", FormatDouble(result.AverageReadTime(), 0) + " us",
                  FormatDouble(speedup, 3) + "x"});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: <1%% at 4 MB, ~5%% at 16 MB, ~40%% at 64 MB\n\n");

  // §4.2.1: only the top 10% most active clients recruit 16 MB remote
  // caches. Activity is measured by baseline read counts.
  std::vector<std::size_t> order(baseline.per_client.size());
  for (std::size_t c = 0; c < order.size(); ++c) {
    order[c] = c;
  }
  std::sort(order.begin(), order.end(), [&baseline](std::size_t a, std::size_t b) {
    return baseline.per_client[a].reads > baseline.per_client[b].reads;
  });
  const std::size_t top = std::max<std::size_t>(1, order.size() / 10);
  std::vector<std::size_t> capacities(order.size(), 0);
  for (std::size_t rank = 0; rank < top; ++rank) {
    capacities[order[rank]] = BytesToBlocks(MiB(16));
  }
  DirectCoopPolicy top10(capacities);
  SimulationResult top10_result;
  COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, top10, &top10_result));
  DirectCoopPolicy all16(BytesToBlocks(MiB(16)));
  SimulationResult all_result;
  COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, all16, &all_result));
  exported.push_back(top10_result);
  exported.push_back(all_result);

  const double top10_gain = top10_result.SpeedupOver(baseline) - 1.0;
  const double all_gain = all_result.SpeedupOver(baseline) - 1.0;
  ctx.Printf("What-if (paper §4.2.1): top %zu of %zu clients recruit 16 MB each\n", top,
             order.size());
  ctx.Printf("  all clients recruit:    %s performance improvement\n",
             FormatPercent(all_gain, 1).c_str());
  ctx.Printf("  top 10%% only:           %s performance improvement (%s of the full benefit)\n",
             FormatPercent(top10_gain, 1).c_str(),
             all_gain > 0 ? FormatPercent(top10_gain / all_gain, 0).c_str() : "n/a");
  ctx.Printf("paper reported: top 10%% capture ~85%% of the maximum Direct benefit\n");
  return ctx.Finish(config, exported);
}

}  // namespace

ExperimentSpec Fig08DirectSweepSpec() {
  ExperimentSpec spec;
  spec.name = "fig08_direct_sweep";
  spec.title = "Figure 8";
  spec.what = "Direct Cooperation speedup vs. remote cache size";
  spec.description = "Direct Cooperation speedup vs. remote cache size";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
