// Extension ablation (paper §2.4's suggested enhancement): forward evicted
// singlets to the most idle client instead of a uniformly random one. The
// paper hypothesizes this "avoids disturbing active clients"; this bench
// measures both global response time and the speedup of the busiest
// clients under each forwarding rule.
#include <algorithm>

#include "src/common/format.h"
#include "src/core/nchance.h"
#include "src/core/nchance_idle.h"
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
  NChancePolicy random_forwarding(2);
  NChanceIdleAwarePolicy idle_forwarding(2);
  SimulationResult random_result;
  COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, random_forwarding, &random_result));
  SimulationResult idle_result;
  COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, idle_forwarding, &idle_result));

  TableFormatter table({"Forwarding rule", "Avg read", "Speedup", "Local", "Remote", "Disk"});
  for (const SimulationResult* result : {&random_result, &idle_result}) {
    table.AddRow({result->policy_name, FormatDouble(result->AverageReadTime(), 0) + " us",
                  FormatDouble(result->SpeedupOver(baseline), 2) + "x",
                  FormatPercent(result->LevelFraction(CacheLevel::kLocalMemory)),
                  FormatPercent(result->LevelFraction(CacheLevel::kRemoteClient)),
                  FormatPercent(result->DiskRate())});
  }
  ctx.Printf("%s\n", table.ToString().c_str());

  // Busiest-decile clients: does idle targeting protect them?
  std::vector<std::size_t> order(baseline.per_client.size());
  for (std::size_t c = 0; c < order.size(); ++c) {
    order[c] = c;
  }
  std::sort(order.begin(), order.end(), [&baseline](std::size_t a, std::size_t b) {
    return baseline.per_client[a].reads > baseline.per_client[b].reads;
  });
  const std::size_t top = std::max<std::size_t>(1, order.size() / 10);
  const auto top_decile_speedup = [&](const SimulationResult& result) {
    const std::vector<double> speedups = result.PerClientSpeedup(baseline);
    double total_reads = 0.0;
    double weighted = 0.0;
    for (std::size_t rank = 0; rank < top; ++rank) {
      const std::size_t c = order[rank];
      const auto reads = static_cast<double>(baseline.per_client[c].reads);
      weighted += speedups[c] * reads;
      total_reads += reads;
    }
    return weighted / total_reads;
  };
  ctx.Printf("busiest %zu clients, read-weighted speedup: random %sx, idle-aware %sx\n", top,
             FormatDouble(top_decile_speedup(random_result), 3).c_str(),
             FormatDouble(top_decile_speedup(idle_result), 3).c_str());
  ctx.Printf("(paper §2.4: idle targeting should help by not disturbing active clients)\n");
  return ctx.Finish(config, {baseline, random_result, idle_result});
}

}  // namespace

ExperimentSpec ExtIdleTargetingSpec() {
  ExperimentSpec spec;
  spec.name = "ext_idle_targeting";
  spec.title = "Extension: idle-targeted forwarding";
  spec.what = "random vs. idle-aware N-Chance singlet placement";
  spec.description = "random vs. idle-aware N-Chance singlet placement";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
