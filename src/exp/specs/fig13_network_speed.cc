// Figure 13: response time vs. network speed (x = round trip to request and
// receive an 8 KB block, excluding memory copy; disk and memory times held
// constant). Paper: at Ethernet speeds (~10 ms) the best cooperative
// speedup is ~20%; at 1 ms it reaches ~70%; below ~100 us the network no
// longer matters. N-Chance tracks the best case across the whole range,
// while Central Coordination decays on slow networks.
#include <algorithm>

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
  const std::vector<Micros> round_trips = {100, 200, 400, 800, 1600, 3200, 6400, 9600};

  std::vector<SimulationJob> jobs;
  for (Micros round_trip : round_trips) {
    for (PolicyKind kind : kinds) {
      SimulationJob job;
      job.config = ctx.PaperConfig(trace.size());
      job.config.network = NetworkModel::Atm155().WithRoundTrip(round_trip);
      job.kind = kind;
      jobs.push_back(job);
    }
  }
  std::vector<SimulationResult> results;
  COOPFS_RETURN_IF_ERROR(ctx.RunJobs(trace, jobs, &results));

  TableFormatter table({"Round trip", "Baseline", "Greedy", "Central", "N-Chance", "Best",
                        "Best speedup"});
  std::size_t index = 0;
  for (Micros round_trip : round_trips) {
    std::vector<std::string> row{std::to_string(round_trip) + " us"};
    double base_time = 0.0;
    double best_time = 1e18;
    for (std::size_t p = 0; p < kinds.size(); ++p, ++index) {
      const double avg = results[index].AverageReadTime();
      if (kinds[p] == PolicyKind::kBaseline) {
        base_time = avg;
      }
      best_time = std::min(best_time, avg);
      row.push_back(FormatDouble(avg, 0) + " us");
    }
    row.push_back(FormatDouble(base_time / best_time, 2) + "x");
    table.AddRow(std::move(row));
  }
  ctx.Printf("%s\n", table.ToString().c_str());
  ctx.Printf("paper reported: ~20%% peak speedup at Ethernet speed (~10 ms), ~70%% at 1 ms, "
             "flat below ~100 us; N-Chance tracks the best case throughout. "
             "Default: 800 us.\n");
  return ctx.Finish(ctx.PaperConfig(trace.size()), results);
}

}  // namespace

ExperimentSpec Fig13NetworkSpeedSpec() {
  ExperimentSpec spec;
  spec.name = "fig13_network_speed";
  spec.title = "Figure 13";
  spec.what = "response time vs. network block round-trip time";
  spec.description = "response time vs. network round-trip time (parallel sweep)";
  spec.trace = TraceKind::kSprite;
  spec.run = Run;
  return spec;
}

}  // namespace coopfs
