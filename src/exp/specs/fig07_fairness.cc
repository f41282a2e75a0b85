// Figure 7: per-client speedup/slowdown vs. the baseline, ordered by client
// activity (read count). Paper: Greedy and N-Chance harm no client; Direct
// slows a few clients up to 25%; Central damages one client by 19%.
#include <algorithm>

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
  SimulationResult baseline;
  COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kBaseline, &baseline));
  const std::vector<PolicyKind> kinds = {PolicyKind::kDirectCoop, PolicyKind::kGreedy,
                                         PolicyKind::kCentralCoord, PolicyKind::kNChance};
  std::vector<SimulationResult> results;
  std::vector<std::vector<double>> speedups;
  for (PolicyKind kind : kinds) {
    results.emplace_back();
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, kind, &results.back()));
    speedups.push_back(results.back().PerClientSpeedup(baseline));
  }

  // Clients ordered by activity, least active first (as on the x-axis).
  std::vector<std::size_t> order(baseline.per_client.size());
  for (std::size_t c = 0; c < order.size(); ++c) {
    order[c] = c;
  }
  std::sort(order.begin(), order.end(), [&baseline](std::size_t a, std::size_t b) {
    return baseline.per_client[a].reads < baseline.per_client[b].reads;
  });

  TableFormatter table({"Client", "Reads", "Direct", "Greedy", "Central", "N-Chance"});
  for (std::size_t c : order) {
    std::vector<std::string> row{"c" + std::to_string(c),
                                 std::to_string(baseline.per_client[c].reads)};
    for (std::size_t p = 0; p < kinds.size(); ++p) {
      row.push_back(FormatDouble(speedups[p][c], 2) + "x");
    }
    table.AddRow(std::move(row));
  }
  ctx.Printf("%s\n", table.ToString().c_str());

  // Summary: worst per-client slowdown per algorithm.
  TableFormatter summary({"Algorithm", "Worst client", "Best client", "Clients slowed >2%"});
  for (std::size_t p = 0; p < kinds.size(); ++p) {
    double worst = 1e9;
    double best = 0.0;
    int slowed = 0;
    for (std::size_t c = 0; c < speedups[p].size(); ++c) {
      worst = std::min(worst, speedups[p][c]);
      best = std::max(best, speedups[p][c]);
      slowed += speedups[p][c] < 0.98 ? 1 : 0;
    }
    summary.AddRow({results[p].policy_name, FormatDouble(worst, 2) + "x",
                    FormatDouble(best, 2) + "x", std::to_string(slowed)});
  }
  ctx.Printf("%s\n", summary.ToString().c_str());
  ctx.Printf("paper reported: Greedy & N-Chance harm no client; Direct slows a few clients "
             "up to 25%%; Central slows one client 19%%\n");

  std::vector<SimulationResult> exported;
  exported.push_back(baseline);
  exported.insert(exported.end(), results.begin(), results.end());
  return ctx.Finish(config, exported);
}

}  // namespace

ExperimentSpec Fig07FairnessSpec() {
  ExperimentSpec spec;
  spec.name = "fig07_fairness";
  spec.title = "Figure 7";
  spec.what = "per-client speedup vs. baseline (fairness)";
  spec.description = "per-client fairness vs. baseline";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
