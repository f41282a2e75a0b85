// Figure 11: response time vs. per-client cache size. Paper: the
// coordinated algorithms do well once caches are reasonably large, but
// coordinating tiny caches hurts (borrowed memory costs local hits without
// cutting disk accesses); Greedy is solid across the range.
//
// The 30 (size x policy) simulations are independent; they run on the
// context's sweep thread budget (src/core/sweep.h).
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
  const std::vector<std::size_t> sizes = {2, 4, 8, 16, 32, 64};

  std::vector<SimulationJob> jobs;
  for (std::size_t mib : sizes) {
    for (PolicyKind kind : kinds) {
      SimulationJob job;
      job.config = ctx.PaperConfig(trace.size());
      job.config.WithClientCacheMiB(mib);
      job.kind = kind;
      jobs.push_back(job);
    }
  }
  std::vector<SimulationResult> results;
  COOPFS_RETURN_IF_ERROR(ctx.RunJobs(trace, jobs, &results));

  TableFormatter table({"Client cache", "Baseline", "Greedy", "Central", "N-Chance", "Best"});
  std::size_t index = 0;
  for (std::size_t mib : sizes) {
    std::vector<std::string> row{std::to_string(mib) + " MB"};
    for (std::size_t p = 0; p < kinds.size(); ++p, ++index) {
      row.push_back(FormatDouble(results[index].AverageReadTime(), 0) + " us");
    }
    table.AddRow(std::move(row));
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: coordination pays off for reasonably large caches; tiny "
             "caches gain little (or lose) from coordination. Default: 16 MB.\n");
  return ctx.Finish(ctx.PaperConfig(trace.size()), results);
}

}  // namespace

ExperimentSpec Fig11ClientCacheSpec() {
  ExperimentSpec spec;
  spec.name = "fig11_client_cache";
  spec.title = "Figure 11";
  spec.what = "response time vs. client cache size";
  spec.description = "response time vs. client cache size (parallel sweep)";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
