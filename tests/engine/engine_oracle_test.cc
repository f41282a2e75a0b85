// Differential oracle for the engine refactor: replaying a trace by driving
// Policy + SimContext directly (the exact per-event sequence the pre-engine
// Simulator inlined) must produce a SimulationResult that renders to the
// same coopfs.metrics/v1 bytes as Simulator::Run, for every registered
// policy. This is the line that lets the simulator delegate its state
// machinery to CacheEngine without any of the 20 paper experiments moving.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/policy_factory.h"
#include "src/engine/cache_engine.h"
#include "src/obs/metrics_exporter.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

SimulationConfig OracleConfig(std::uint32_t num_clients) {
  SimulationConfig config;
  config.client_cache_blocks = 64;
  config.server_cache_blocks = 256;
  config.num_clients = num_clients;
  config.warmup_events = 5'000;
  config.seed = 13;
  return config;
}

// The pre-engine Simulator::Run loop, reproduced verbatim: direct policy and
// context driving, no CacheEngine anywhere.
SimulationResult LegacyReplay(const SimulationConfig& config, const Trace& trace,
                              Policy& policy) {
  const std::uint32_t num_clients = config.num_clients;
  SimContext context(config, num_clients, policy.ClientCacheBlocks(config),
                     policy.ServerCacheBlocks(config));
  policy.Attach(context);

  SimulationResult result;
  result.policy_name = policy.Name();
  result.per_client.resize(num_clients);

  std::uint64_t index = 0;
  for (const TraceEvent& event : trace) {
    context.set_now(event.timestamp);
    context.set_accounting(index >= config.warmup_events);
    context.CountEvent();
    policy.Tick();
    switch (event.type) {
      case EventType::kRead: {
        context.directory().NoteBlock(event.block);
        const ReadOutcome outcome = policy.Read(event.client, event.block);
        const Micros latency = OutcomeLatency(outcome, config);
        if (context.accounting()) {
          const auto level = static_cast<std::size_t>(outcome.level);
          result.level_counts.Add(level);
          result.level_time_us[level] += static_cast<double>(latency);
          ++result.reads;
          ClientReadStats& client_stats = result.per_client[event.client];
          ++client_stats.reads;
          client_stats.total_time_us += static_cast<double>(latency);
          result.latency_histogram.Add(static_cast<double>(latency));
        }
        break;
      }
      case EventType::kWrite:
        context.directory().NoteBlock(event.block);
        policy.Write(event.client, event.block);
        break;
      case EventType::kDelete:
        policy.Delete(event.client, event.block.file);
        break;
      case EventType::kReadAttr:
        policy.ReadAttr(event.client, event.block.file);
        break;
      case EventType::kReboot:
        policy.Reboot(event.client);
        break;
    }
    ++index;
  }

  result.server_load = context.server_load();
  result.counters = context.counters();
  result.writes = context.write_stats().writes;
  result.flushed_writes = context.write_stats().flushed;
  result.absorbed_writes = context.write_stats().absorbed;
  result.lost_writes = context.write_stats().lost;
  return result;
}

TEST(EngineOracleTest, EngineMediatedReplayIsByteIdenticalForEveryPolicy) {
  WorkloadConfig workload = SmallTestWorkloadConfig(19);
  workload.mean_reboots_per_client = 1.0;  // Exercise the reboot path too.
  const Trace trace = GenerateWorkload(workload);
  ASSERT_FALSE(trace.empty());
  const SimulationConfig config = OracleConfig(workload.num_clients);

  for (const PolicyKind kind : AllPolicyKinds()) {
    SCOPED_TRACE(PolicyKindName(kind));

    std::unique_ptr<Policy> legacy_policy = MakePolicy(kind);
    const SimulationResult expected = LegacyReplay(config, trace, *legacy_policy);

    std::unique_ptr<Policy> engine_policy = MakePolicy(kind);
    Simulator simulator(config, &trace);
    Result<SimulationResult> actual = simulator.Run(*engine_policy);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    EXPECT_EQ(SimulationResultToJson(expected), SimulationResultToJson(*actual));
  }
}

// The delayed-write configuration routes extra state through Tick(); pin it
// separately so the flush path is covered by the oracle as well.
TEST(EngineOracleTest, DelayedWriteReplayIsByteIdentical) {
  const WorkloadConfig workload = SmallTestWorkloadConfig(23);
  const Trace trace = GenerateWorkload(workload);
  SimulationConfig config = OracleConfig(workload.num_clients);
  config.write_policy = WritePolicy::kDelayedWrite;

  std::unique_ptr<Policy> legacy_policy = MakePolicy(PolicyKind::kNChance);
  const SimulationResult expected = LegacyReplay(config, trace, *legacy_policy);

  std::unique_ptr<Policy> engine_policy = MakePolicy(PolicyKind::kNChance);
  Simulator simulator(config, &trace);
  Result<SimulationResult> actual = simulator.Run(*engine_policy);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  EXPECT_EQ(SimulationResultToJson(expected), SimulationResultToJson(*actual));
}

}  // namespace
}  // namespace coopfs
