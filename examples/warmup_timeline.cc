// Timeline example: watch cache warm-up and steady-state behaviour over
// simulated time with a SnapshotSampler (as examples/state_timeline does).
//
// Prints average read latency and disk rate per 4-hour window for the
// baseline and N-Chance over a two-day Sprite-like trace — the picture
// behind the paper's decision to discard the first 400k accesses as warm-up
// (§3). Windows without reads are skipped.
//
// Usage: warmup_timeline [--events N] [--seed S]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/format.h"
#include "src/core/policy_factory.h"
#include "src/obs/snapshot_sampler.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace {

std::uint64_t FlagValue(int argc, char** argv, const char* name, std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

double AvgReadTime(const coopfs::StateSample& sample) {
  return sample.CountedTimeUs() / static_cast<double>(sample.CountedReads());
}

double DiskRate(const coopfs::StateSample& sample) {
  constexpr auto kDisk = static_cast<std::size_t>(coopfs::CacheLevel::kServerDisk);
  return static_cast<double>(sample.level_reads[kDisk]) /
         static_cast<double>(sample.CountedReads());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coopfs;

  WorkloadConfig workload = SpriteWorkloadConfig(FlagValue(argc, argv, "--seed", 42));
  workload.num_events = FlagValue(argc, argv, "--events", 300'000);
  std::printf("Generating %llu events over %s...\n\n",
              static_cast<unsigned long long>(workload.num_events),
              FormatMicros(static_cast<double>(workload.duration)).c_str());
  const Trace trace = GenerateWorkload(workload);

  SnapshotSampler sampler;
  SimulationConfig config;
  config.warmup_events = 0;  // We want to *see* the warm-up.
  config.snapshot_sampler = &sampler;
  config.sample_interval = 4LL * 3600 * 1'000'000;  // 4-hour windows.

  Simulator simulator(config, &trace);
  auto baseline = MakePolicy(PolicyKind::kBaseline);
  auto nchance = MakePolicy(PolicyKind::kNChance);
  const Result<SimulationResult> base = simulator.Run(*baseline);
  const Result<SimulationResult> coop = simulator.Run(*nchance);
  if (!base.ok() || !coop.ok()) {
    std::fprintf(stderr, "simulation failed\n");
    return 1;
  }

  TableFormatter table({"Sim. time", "Base avg", "Base disk", "N-Chance avg", "N-Chance disk",
                        "Speedup"});
  // Both runs replay one trace, so their windows line up one to one. The
  // run-end sample closes a partial window, which ends at the first boundary
  // the trace did not reach.
  const SnapshotRun& base_run = sampler.runs()[0];
  const SnapshotRun& coop_run = sampler.runs()[1];
  Micros window_end = base_run.start_time;
  const std::size_t windows = std::min(base_run.samples.size(), coop_run.samples.size());
  for (std::size_t i = 0; i < windows; ++i) {
    const StateSample& b = base_run.samples[i];
    const StateSample& n = coop_run.samples[i];
    window_end = b.trigger == SampleTrigger::kInterval ? b.time : window_end + base_run.interval;
    if (b.CountedReads() == 0) {
      continue;
    }
    table.AddRow({FormatMicros(static_cast<double>(window_end)),
                  FormatDouble(AvgReadTime(b), 0) + " us", FormatPercent(DiskRate(b)),
                  FormatDouble(AvgReadTime(n), 0) + " us", FormatPercent(DiskRate(n)),
                  FormatDouble(AvgReadTime(b) / AvgReadTime(n), 2) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Note the cold start: both start disk-bound; the cooperative advantage only\n"
              "emerges once client caches fill — which is why the paper (and the fig*\n"
              "benches here) discard the warm-up portion of the trace before measuring.\n");
  return 0;
}
