// Extension analysis (paper §3 caveat): queueing delay at the server.
//
// The paper computes response times with no queueing, arguing that the
// attractive algorithms do not raise server load and the network is
// switched. This bench quantifies the caveat with a standard M/M/1
// correction: given a server that can process C load-units per second, an
// algorithm generating lambda units/second sees its server-side service
// times inflated by 1/(1 - lambda/C). Algorithms that push more traffic
// through the server (Central Coordination) hit the wall first; Hash
// Distribution, which bypasses the server for cooperative hits, lasts
// longest — making the paper's server-load argument concrete.
#include "src/common/format.h"
#include "src/exp/context.h"
#include "src/exp/specs.h"
#include "src/sim/queueing.h"

namespace coopfs {

namespace {

Status Run(ExperimentContext& ctx) {
  const Trace& trace = ctx.Sprite();
  const SimulationConfig config = ctx.PaperConfig(trace.size());
  ctx.Banner(trace.size());

  Simulator simulator(config, &trace);
  const std::vector<PolicyKind> kinds = {PolicyKind::kBaseline, PolicyKind::kGreedy,
                                         PolicyKind::kCentralCoord, PolicyKind::kNChance,
                                         PolicyKind::kHashDistributed};
  std::vector<SimulationResult> results;
  for (PolicyKind kind : kinds) {
    results.emplace_back();
    COOPFS_RETURN_IF_ERROR(ctx.Run(simulator, kind, &results.back()));
  }

  // Post-warm-up simulated wall time.
  const Micros span = trace.back().timestamp - trace[config.warmup_events].timestamp;
  const double seconds = static_cast<double>(span) / 1e6;

  ctx.Printf("offered server load (units/s): ");
  for (const SimulationResult& result : results) {
    ctx.Printf("%s %s  ", result.policy_name.c_str(),
               FormatDouble(OfferedLoadUnitsPerSecond(result, seconds), 0).c_str());
  }
  ctx.Printf("\n\n");

  TableFormatter table({"Server capacity", "Baseline", "Greedy", "Central", "N-Chance", "Hash"});
  const double base_rate = OfferedLoadUnitsPerSecond(results.front(), seconds);
  for (const double capacity : {50.0, 20.0, 10.0, 5.0, 3.0, 2.0}) {
    // Capacity expressed as a multiple of the baseline's offered load.
    const double capacity_units = capacity * base_rate;
    std::vector<std::string> row{FormatDouble(capacity, 0) + "x base load"};
    for (const SimulationResult& result : results) {
      const Result<QueueingAdjustment> adjusted =
          ApplyServerQueueing(result, seconds, capacity_units);
      if (!adjusted.ok() || adjusted->saturated || adjusted->utilization >= 0.99) {
        row.push_back("saturated");
        continue;
      }
      row.push_back(FormatDouble(adjusted->adjusted_read_time, 0) + " us");
    }
    table.AddRow(std::move(row));
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("expected: rankings stable at generous capacity; Central saturates first as\n"
             "capacity tightens (its local misses all transit the server), vindicating the\n"
             "paper's decision to report Figure 6 alongside unqueued response times\n");
  return ctx.Finish(config, results);
}

}  // namespace

ExperimentSpec ExtQueueingSpec() {
  ExperimentSpec spec;
  spec.name = "ext_queueing";
  spec.title = "Extension: server queueing sensitivity";
  spec.what = "M/M/1-adjusted response vs. server capacity";
  spec.description = "M/M/1-adjusted response times vs. server capacity";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
