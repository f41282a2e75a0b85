// Shared run options for the experiment framework (src/exp) and the bench
// binaries built on it.
//
// Every experiment replays a shared synthetic trace under the paper's §4.1
// default configuration, varying one dimension. Common flags:
//   --events N             trace length (default 700,000 as in the paper)
//   --seed S               workload seed (default 42)
//   --auspex-events N      Auspex visible-event count (default 5,000,000)
//   --json PATH            also export the runs as a coopfs.metrics/v1 document
//   --trace-events PATH    record per-event traces for every run and write a
//                          coopfs.events/v1 JSONL document (docs/observability.md)
//   --trace-perfetto PATH  also write the runs as Chrome trace_event JSON for
//                          ui.perfetto.dev
//   --timeseries PATH      sample simulation state periodically and write a
//                          coopfs.timeseries/v1 JSONL document
//   --sample-interval N    simulated microseconds between samples (default
//                          3600000000 = 1 simulated hour)
//   --profile PATH         time the simulator's own phases and write a
//                          coopfs.profile/v1 JSON document (also prints the
//                          self-time table)
//   --metrics-detail D     "full" (default) keeps exact per-client arrays;
//                          "bounded" streams reads through O(K) sketches
//                          (docs/observability.md, bounded-memory mode)
//   --bench-out PATH       throughput experiments (ext_scaling) also write a
//                          coopfs.bench/v1 report here
//   --max-clients N        cap for scale sweeps (ext_scaling); CI smoke legs
//                          use 10000 to skip the 10^6-client point
// Warm-up is scaled as in the paper (src/trace/warmup.h): the first 4/7 of a
// Sprite-like trace (400k of 700k accesses), 1/5 of an Auspex-like one.
#ifndef COOPFS_SRC_EXP_OPTIONS_H_
#define COOPFS_SRC_EXP_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/config.h"
#include "src/trace/warmup.h"

namespace coopfs {

struct BenchOptions {
  std::uint64_t events = 700'000;
  std::uint64_t seed = 42;
  std::uint64_t auspex_events = 5'000'000;
  std::string json_out;            // --json PATH: empty = no structured export.
  std::string trace_events_out;    // --trace-events PATH: empty = no recording.
  std::string trace_perfetto_out;  // --trace-perfetto PATH: empty = none.
  std::string timeseries_out;      // --timeseries PATH: empty = no sampling.
  std::string profile_out;         // --profile PATH: empty = profiler off.
  // --sample-interval N: simulated µs between samples (1 simulated hour; the
  // synthetic Sprite-like workload spans two simulated days).
  Micros sample_interval = 3'600'000'000;
  // --metrics-detail full|bounded: how runs account per-client/per-block
  // detail (SimulationConfig::metrics_detail).
  MetricsDetail metrics_detail = MetricsDetail::kFull;
  // --bench-out PATH: experiments that measure throughput (ext_scaling)
  // also write a coopfs.bench/v1 report here. Empty = no report.
  std::string bench_out;
  // --max-clients N: caps scale sweeps (ext_scaling) at N clients; CI smoke
  // legs stop at 10^4 and leave 10^5+ to acceptance runs. Default: no cap.
  std::uint32_t max_clients = 1'000'000;

  // Parses flags; also enables the self-profiler process-wide when --profile
  // was given, so spans cover workload generation as well as the runs.
  // Unknown flags are ignored (the driver parses its own on top of these).
  // A flag without a value, a malformed number, or an unknown
  // --metrics-detail is an InvalidArgument naming the flag.
  static Result<BenchOptions> FromArgs(int argc, char** argv);

  bool tracing_requested() const {
    return !trace_events_out.empty() || !trace_perfetto_out.empty();
  }

  bool sampling_requested() const { return !timeseries_out.empty(); }

  // True when any per-run observability sink is attached; such sinks are not
  // synchronized, so runs sharing them must stay on one thread.
  bool observability_requested() const {
    return tracing_requested() || sampling_requested() || !profile_out.empty();
  }

  std::uint64_t WarmupFor(std::uint64_t num_events) const {
    return SpriteWarmupEvents(num_events);
  }
};

// True for the flags BenchOptions::FromArgs consumes (each takes a value).
bool IsBenchFlag(const char* arg);

}  // namespace coopfs

#endif  // COOPFS_SRC_EXP_OPTIONS_H_
