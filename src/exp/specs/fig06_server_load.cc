// Figure 6: server load by algorithm, as a percentage of the baseline
// no-cooperation load, segmented by request type (§4.1 load units: small
// message 1, data transfer +2, disk transfer 2; local hits free).
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
  const double base_units = static_cast<double>(results.front().server_load.TotalUnits());

  TableFormatter table({"Algorithm", "Hit Server Mem", "Hit Remote Client", "Hit Disk",
                        "Other Load", "Total"});
  for (const SimulationResult& result : results) {
    auto pct = [&](ServerLoadKind kind) {
      return FormatPercent(static_cast<double>(result.server_load.Units(kind)) / base_units, 1);
    };
    table.AddRow({result.policy_name, pct(ServerLoadKind::kHitServerMemory),
                  pct(ServerLoadKind::kHitRemoteClient), pct(ServerLoadKind::kHitDisk),
                  pct(ServerLoadKind::kOther),
                  FormatPercent(static_cast<double>(result.server_load.TotalUnits()) / base_units,
                                1)});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: most algorithms at or below baseline load; Central somewhat "
             "above it (every local miss goes through the server)\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec Fig06ServerLoadSpec() {
  ExperimentSpec spec;
  spec.name = "fig06_server_load";
  spec.title = "Figure 6";
  spec.what = "relative server load by algorithm";
  spec.description = "relative server load by algorithm";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
