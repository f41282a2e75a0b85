// Capacity planning: a what-if tool a storage administrator could use.
//
// Given a workload, compare three upgrade paths for read performance:
//   (a) buy more client memory (bigger local caches),
//   (b) buy more server memory (bigger central cache),
//   (c) deploy cooperative caching (N-Chance) on existing hardware.
// The paper's §4.5 argues (c) beats (b) at equal cost; this example lets
// you check that for a workload you model.
//
// Usage: capacity_planning [--events N] [--seed S]
#include <cstdio>
#include <cstdlib>

#include "src/common/flags.h"
#include "src/common/format.h"
#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

int main(int argc, char** argv) {
  using namespace coopfs;

  std::uint64_t seed = 42;
  std::uint64_t events = 300'000;
  if (Status status = ParseFlags(argc, argv, {{"--events", &events}, {"--seed", &seed}});
      !status.ok()) {
    std::fprintf(stderr, "capacity_planning: %s\n", status.message().c_str());
    return 2;
  }
  WorkloadConfig workload = SpriteWorkloadConfig(seed);
  workload.num_events = events;
  std::printf("Generating workload (%llu events, %u clients)...\n\n",
              static_cast<unsigned long long>(workload.num_events), workload.num_clients);
  const Trace trace = GenerateWorkload(workload);

  const auto run = [&trace](std::size_t client_mib, std::size_t server_mib, PolicyKind kind) {
    SimulationConfig config;
    config.WithClientCacheMiB(client_mib).WithServerCacheMiB(server_mib);
    config.warmup_events = SpriteWarmupEvents(trace.size());
    Simulator simulator(config, &trace);
    auto policy = MakePolicy(kind);
    Result<SimulationResult> result = simulator.Run(*policy);
    if (!result.ok()) {
      std::fprintf(stderr, "simulation failed: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    return *std::move(result);
  };

  const std::uint32_t clients = workload.num_clients;
  const SimulationResult today = run(16, 128, PolicyKind::kBaseline);

  TableFormatter table({"Upgrade path", "Added RAM", "Avg read", "Speedup", "Disk rate"});
  const auto row = [&](const char* name, std::size_t added_mib, const SimulationResult& result) {
    table.AddRow({name, FormatBytes(MiB(added_mib)), FormatDouble(result.AverageReadTime(), 0) +
                  " us", FormatDouble(result.SpeedupOver(today), 2) + "x",
                  FormatPercent(result.DiskRate())});
  };

  row("Today: 16 MB clients + 128 MB server, no coop", 0, today);
  row("(a) double client memory (32 MB each)", 16 * clients,
      run(32, 128, PolicyKind::kBaseline));
  row("(b) grow server cache by the same total RAM", 16 * clients,
      run(16, 128 + 16 * clients, PolicyKind::kBaseline));
  row("(c) cooperative caching, zero new RAM", 0, run(16, 128, PolicyKind::kNChance));
  row("(c+) coop caching AND double client memory", 16 * clients,
      run(32, 128, PolicyKind::kNChance));
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Interpretation: if (c) rivals (a)/(b), cooperative caching delivers the\n"
              "upgrade without buying RAM; (c+) shows the two combine.\n");
  return 0;
}
