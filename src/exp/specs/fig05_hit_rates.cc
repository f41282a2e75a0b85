// Figure 5: fraction of reads satisfied at each level of the hierarchy.
// Paper: local miss rates 22% (base/direct/greedy/best), 36% (central),
// 23% (N-Chance); disk rates 15.7% (base) vs 7.6-7.7% (coordinated).
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
  TableFormatter table({"Algorithm", "Local miss", "Remote Client", "Server Mem", "Server Disk",
                        "Combined-mem miss"});
  std::vector<SimulationResult> results;
  for (PolicyKind kind : Figure4PolicyKinds()) {
    results.emplace_back();
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, kind, &results.back()));
    const SimulationResult& result = results.back();
    const double remote = result.LevelFraction(CacheLevel::kRemoteClient);
    const double disk = result.DiskRate();
    table.AddRow({result.policy_name, FormatPercent(result.LocalMissRate()),
                  FormatPercent(remote),
                  FormatPercent(result.LevelFraction(CacheLevel::kServerMemory)),
                  FormatPercent(disk), FormatPercent(remote + disk)});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: local miss 22%% (base/greedy/best) / 36%% (central) / 23%% "
             "(N-Chance); disk 15.7%% base -> 7.6-7.7%% coordinated\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec Fig05HitRatesSpec() {
  ExperimentSpec spec;
  spec.name = "fig05_hit_rates";
  spec.title = "Figure 5";
  spec.what = "hit level breakdown by algorithm";
  spec.description = "hit level breakdown by algorithm";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
