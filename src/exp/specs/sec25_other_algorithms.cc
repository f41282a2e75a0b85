// §2.5: the two algorithms whose results the paper omits. Hash-Distributed
// Caching should match Centrally Coordinated hit rates with much lower
// server load; Weighted LRU should perform like N-Chance but with extra
// global-state query load.
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
  const std::vector<PolicyKind> kinds = {PolicyKind::kCentralCoord,
                                         PolicyKind::kHashDistributed, PolicyKind::kNChance,
                                         PolicyKind::kWeightedLru};

  std::vector<SimulationResult> results;
  results.push_back(baseline);
  TableFormatter table({"Algorithm", "Avg read", "Speedup", "Local", "Remote", "ServerMem",
                        "Disk", "Rel. server load"});
  for (PolicyKind kind : kinds) {
    SimulationResult result;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, kind, &result));
    results.push_back(result);
    std::vector<std::string> row = ResultRow(result, baseline);
    row.push_back(FormatPercent(result.RelativeServerLoad(baseline), 0));
    table.AddRow(std::move(row));
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: Hash-Distributed ~= Central hit rates with significantly lower "
             "server load; Weighted LRU ~= N-Chance response time but more complex and "
             "heavier on the server\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec Sec25OtherAlgorithmsSpec() {
  ExperimentSpec spec;
  spec.name = "sec25_other_algorithms";
  spec.title = "Section 2.5";
  spec.what = "Hash-Distributed and Weighted-LRU (results omitted in paper)";
  spec.description = "Hash-Distributed and Weighted-LRU algorithms";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
