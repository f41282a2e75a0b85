// Figure 12: response time vs. central server cache size. Paper: a bigger
// server cache helps the baseline a lot and the cooperative algorithms only
// modestly; cooperative caching stops paying once the server cache rivals
// the aggregate client memory (42 x 16 MB = 672 MB) — but such a server
// doubles the system's memory cost. Central Coordination suffers at very
// large server caches because of its reduced local hit rate.
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const Trace& trace = ctx.Sprite();
  ctx.Banner(trace.size());

  const std::vector<PolicyKind> kinds = {PolicyKind::kBaseline, PolicyKind::kGreedy,
                                         PolicyKind::kCentralCoord, PolicyKind::kNChance,
                                         PolicyKind::kBestCase};
  const std::vector<std::size_t> sizes = {32, 64, 128, 256, 512, 768, 1024};

  std::vector<SimulationJob> jobs;
  for (std::size_t mib : sizes) {
    for (PolicyKind kind : kinds) {
      SimulationJob job;
      job.config = ctx.PaperConfig(trace.size());
      job.config.WithServerCacheMiB(mib);
      job.kind = kind;
      jobs.push_back(job);
    }
  }
  std::vector<SimulationResult> results;
  COOPFS_RETURN_IF_ERROR(ctx.RunJobs(trace, jobs, &results));

  TableFormatter table({"Server cache", "Baseline", "Greedy", "Central", "N-Chance", "Best"});
  std::size_t index = 0;
  for (std::size_t mib : sizes) {
    std::vector<std::string> row{std::to_string(mib) + " MB"};
    for (std::size_t p = 0; p < kinds.size(); ++p, ++index) {
      row.push_back(FormatDouble(results[index].AverageReadTime(), 0) + " us");
    }
    table.AddRow(std::move(row));
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: baseline improves sharply with server cache; cooperative "
             "algorithms only modestly; benefit vanishes near aggregate client memory "
             "(672 MB). Default: 128 MB.\n");
  return ctx.Finish(ctx.PaperConfig(trace.size()), results);
}

}  // namespace

ExperimentSpec Fig12ServerCacheSpec() {
  ExperimentSpec spec;
  spec.name = "fig12_server_cache";
  spec.title = "Figure 12";
  spec.what = "response time vs. server cache size";
  spec.description = "response time vs. server cache size (parallel sweep)";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
