// Extension ablation (paper §3 and §5): delayed writes vs. write-through.
//
// The paper asserts that, because it studies reads, "a delayed write or
// write back policy would not affect our results", and points (§5) at
// DASH-style dirty-data forwarding as the natural companion optimization.
// This bench validates the claim — read response barely moves — and
// quantifies what delayed writes buy on the write path: the fraction of
// server write traffic absorbed because blocks were overwritten or deleted
// before their 30 s flush came due.
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const Trace& trace = ctx.Sprite();
  ctx.Banner(trace.size());

  SimulationConfig base_config;
  bool have_base_config = false;
  std::vector<SimulationResult> results;
  TableFormatter table({"Algorithm / write policy", "Avg read", "Disk rate", "Writes",
                        "Flushed", "Absorbed", "Write traffic"});
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kGreedy, PolicyKind::kNChance}) {
    for (const WritePolicy write_policy :
         {WritePolicy::kWriteThrough, WritePolicy::kDelayedWrite}) {
      SimulationConfig config = ctx.PaperConfig(trace.size());
      config.write_policy = write_policy;
      if (!have_base_config) {
        base_config = config;
        have_base_config = true;
      } else {
        ctx.RecordConfig(config);
      }
      Simulator simulator(config, &trace);
      SimulationResult result;
      COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, kind, &result));
      const bool delayed = write_policy == WritePolicy::kDelayedWrite;
      // Write traffic to the server: every write (through) vs. only flushes.
      const std::uint64_t traffic = delayed ? result.flushed_writes : result.writes;
      table.AddRow({result.policy_name + (delayed ? " / delayed" : " / through"),
                    FormatDouble(result.AverageReadTime(), 0) + " us",
                    FormatPercent(result.DiskRate()), std::to_string(result.writes),
                    delayed ? std::to_string(result.flushed_writes) : "-",
                    delayed ? std::to_string(result.absorbed_writes) : "-",
                    result.writes == 0
                        ? "-"
                        : FormatPercent(static_cast<double>(traffic) /
                                        static_cast<double>(result.writes))});
      results.push_back(std::move(result));
    }
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("expected: read columns nearly identical across write policies (paper §3); the\n"
             "delayed rows show the server write traffic saved by absorption\n");
  return ctx.Finish(base_config, results);
}

}  // namespace

ExperimentSpec ExtWritePolicySpec() {
  ExperimentSpec spec;
  spec.name = "ext_write_policy";
  spec.title = "Extension: write policy";
  spec.what = "write-through vs. 30 s delayed writes";
  spec.description = "write-through vs. 30 s delayed writes";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
