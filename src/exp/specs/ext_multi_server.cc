// Extension ablation: striping the file service across multiple servers —
// the direction the paper's own xFS project took ("the use of the vast
// aggregate resources of the system's clients", §1; Sprite itself ran
// several servers, §3 footnote 1).
//
// Total server memory is held constant while files are hash-striped over
// 1..8 servers. Raw response time barely moves (the same blocks are cached
// somewhere), but the offered load *per server* falls ~1/S, which the
// M/M/1 queueing model turns into real latency headroom at tight capacity.
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"
#include "src/sim/queueing.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const Trace& trace = ctx.Sprite();
  ctx.Banner(trace.size());

  TableFormatter table({"Servers", "Baseline", "N-Chance", "Load/server (base)",
                        "Queued base @3x", "Queued N-Chance @3x"});
  double single_server_rate = 0.0;
  SimulationConfig base_config;
  std::vector<SimulationResult> results;
  for (const std::uint32_t servers : {1u, 2u, 4u, 8u}) {
    SimulationConfig config = ctx.PaperConfig(trace.size());
    config.num_servers = servers;
    if (servers == 1) {
      base_config = config;
    } else {
      ctx.RecordConfig(config);
    }
    Simulator simulator(config, &trace);
    SimulationResult base;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kBaseline, &base));
    SimulationResult nchance;
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, PolicyKind::kNChance, &nchance));
    results.push_back(base);
    results.push_back(nchance);

    const Micros span = trace.back().timestamp - trace[config.warmup_events].timestamp;
    const double seconds = static_cast<double>(span) / 1e6;
    // Aggregate offered load is ~independent of striping; each server sees
    // roughly a 1/S share.
    const double per_server_rate =
        OfferedLoadUnitsPerSecond(base, seconds) / static_cast<double>(servers);
    if (servers == 1) {
      single_server_rate = per_server_rate;
    }
    // Queueing at per-server capacity fixed at 3x the single-server load:
    // striping buys headroom.
    const double capacity = 3.0 * single_server_rate;
    const auto queued = [&](const SimulationResult& result) -> std::string {
      SimulationResult share = result;  // Approximate: each server sees 1/S.
      share.server_load.Reset();
      share.server_load.ChargeSmallMessages(result.server_load.TotalUnits() / servers);
      const Result<QueueingAdjustment> adjustment =
          ApplyServerQueueing(share, seconds, capacity);
      if (!adjustment.ok() || adjustment->saturated || adjustment->utilization >= 0.99) {
        return "saturated";
      }
      return FormatDouble(adjustment->adjusted_read_time, 0) + " us";
    };

    table.AddRow({std::to_string(servers), FormatDouble(base.AverageReadTime(), 0) + " us",
                  FormatDouble(nchance.AverageReadTime(), 0) + " us",
                  FormatDouble(per_server_rate, 1) + " u/s", queued(base), queued(nchance)});
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("expected: raw response ~flat (same total memory); per-server load ~1/S; at a\n"
             "fixed per-server capacity, striping is what keeps queueing in check —\n"
             "cooperative caching and server distribution compose (the xFS thesis)\n");
  return ctx.Finish(base_config, results);
}

}  // namespace

ExperimentSpec ExtMultiServerSpec() {
  ExperimentSpec spec;
  spec.name = "ext_multi_server";
  spec.title = "Extension: multi-server striping";
  spec.what = "response and per-server load vs. #servers";
  spec.description = "hash-striping the file service over 1..8 servers";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
