// State-timeline example: sample live simulation state over simulated time
// with SnapshotSampler (coopfs.timeseries/v1).
//
// Where warmup_timeline watches only per-bucket read latency, this example
// attaches the full sampler to an N-Chance run and prints the state the
// aggregates average away: client-cache occupancy climbing, the
// singlet/duplicate split the algorithm manages (§2.4), and per-window
// forwarding activity. With --out PATH the samples are also written as a
// validated coopfs.timeseries/v1 JSONL document for plotting or
// `coopfs_inspect timeline`.
//
// Usage: state_timeline [--events N] [--seed S] [--out PATH]
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/common/format.h"
#include "src/core/policy_factory.h"
#include "src/obs/snapshot_sampler.h"
#include "src/sim/simulator.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

int main(int argc, char** argv) {
  using namespace coopfs;

  std::uint64_t seed = 42;
  std::uint64_t events = 300'000;
  std::string out;
  if (Status status = ParseFlags(argc, argv,
                                 {{"--events", &events}, {"--seed", &seed}, {"--out", &out}});
      !status.ok()) {
    std::fprintf(stderr, "state_timeline: %s\n", status.message().c_str());
    return 2;
  }
  WorkloadConfig workload = SpriteWorkloadConfig(seed);
  workload.num_events = events;
  std::printf("Generating %llu events over %s...\n\n",
              static_cast<unsigned long long>(workload.num_events),
              FormatMicros(static_cast<double>(workload.duration)).c_str());
  const Trace trace = GenerateWorkload(workload);

  SnapshotSampler sampler;
  SimulationConfig config;
  config.warmup_events = SpriteWarmupEvents(workload.num_events);
  config.snapshot_sampler = &sampler;
  config.sample_interval = 4LL * 3600 * 1'000'000;  // 4 simulated hours.

  Simulator simulator(config, &trace);
  auto nchance = MakePolicy(PolicyKind::kNChance);
  const Result<SimulationResult> result = simulator.Run(*nchance);
  if (!result.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  TableFormatter table({"Sim. time", "Trigger", "Reads", "Avg read", "Client occ.", "Duplicates",
                        "Forwards"});
  for (const SnapshotRun& run : sampler.runs()) {
    for (const StateSample& sample : run.samples) {
      const std::uint64_t counted = sample.CountedReads();
      const double occupancy =
          sample.state.client_blocks_capacity == 0
              ? 0.0
              : static_cast<double>(sample.state.client_blocks_used) /
                    static_cast<double>(sample.state.client_blocks_capacity);
      const double duplicates =
          sample.state.directory_blocks == 0
              ? 0.0
              : static_cast<double>(sample.state.duplicate_blocks) /
                    static_cast<double>(sample.state.directory_blocks);
      std::uint64_t forwards = 0;
      for (const ClientWindowStats& client : sample.clients) {
        forwards += client.benefited;
      }
      table.AddRow({FormatMicros(static_cast<double>(sample.time)),
                    SampleTriggerName(sample.trigger),
                    std::to_string(sample.window_reads),
                    counted == 0 ? "-" : FormatDouble(sample.CountedTimeUs() /
                                                          static_cast<double>(counted), 0) + " us",
                    FormatPercent(occupancy), FormatPercent(duplicates),
                    std::to_string(forwards)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Zero-read windows appear explicitly (overnight gaps in the diurnal\n"
              "workload); 'Avg read' covers counted (post-warm-up) reads only, so early\n"
              "windows show '-' while the caches fill.\n");

  if (!out.empty()) {
    TraceExportMetadata metadata;
    metadata.seed = seed;
    metadata.trace_events = workload.num_events;
    metadata.workload = "sprite";
    if (Status status = WriteTimeseriesJsonl(sampler.runs(), metadata, out); !status.ok()) {
      std::fprintf(stderr, "timeseries export failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s -- try: coopfs_inspect timeline %s\n", out.c_str(), out.c_str());
  }
  return 0;
}
