// Streaming replay and directory sharding must not change a single byte.
//
// Two equivalence lines guard the scale-out machinery:
//
//   1. Feeding the simulator through an EventSource (the streaming workload
//      generator, or the MaterializedEventSource adapter) must serialize to
//      byte-identical coopfs.metrics/v1, coopfs.events/v1, and
//      coopfs.timeseries/v1 documents as handing it the materialized
//      `const Trace&` — the paper experiments all ride the adapter, so any
//      divergence here is a paper-figure regression.
//
//   2. The directory's shard count is a pure layout choice: replaying with
//      1, 8, or 64 shards must also be byte-identical. Shards are routed by
//      file id, so per-file iteration order (KnownBlocks and EraseFile —
//      the attribute-refresh and delete paths) is unchanged by construction;
//      this test holds the line end to end, reboots and N-Chance forwarding
//      included.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/policy_factory.h"
#include "src/obs/metrics_exporter.h"
#include "src/obs/snapshot_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"
#include "src/trace/event_source.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

class StreamingReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new WorkloadConfig(SpriteWorkloadConfig());
    config_->num_events = 30'000;
    // Reboots + temp deletes: the bulk-drain and whole-file-erase paths
    // where iteration order historically leaked.
    config_->mean_reboots_per_client = 2.0;
    trace_ = new Trace(GenerateWorkload(*config_));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
    delete config_;
    config_ = nullptr;
  }

  static SimulationConfig ReplayConfig(std::uint32_t directory_shards) {
    SimulationConfig config;
    config.WithClientCacheMiB(1).WithServerCacheMiB(8);
    config.num_clients = config_->num_clients;
    config.warmup_events = trace_->size() / 4;
    config.directory_shards = directory_shards;
    return config;
  }

  // One policy's full observable output (metrics + events + timeseries) for
  // a given event feed and shard count, as one serialized blob.
  static std::string RunSerialized(PolicyKind kind, EventSource* source,
                                   std::uint32_t directory_shards) {
    TraceRecorder recorder;
    SnapshotSampler sampler;
    SimulationConfig config = ReplayConfig(directory_shards);
    config.trace_recorder = &recorder;
    config.snapshot_sampler = &sampler;
    config.sample_interval = (trace_->back().timestamp - trace_->front().timestamp) / 7;
    std::unique_ptr<Simulator> simulator;
    if (source != nullptr) {
      simulator = std::make_unique<Simulator>(config, source);
    } else {
      simulator = std::make_unique<Simulator>(config, trace_);
    }
    auto policy = MakePolicy(kind);
    Result<SimulationResult> result = simulator->Run(*policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) {
      return {};
    }
    TraceExportMetadata metadata;
    metadata.seed = config.seed;
    metadata.trace_events = trace_->size();
    metadata.workload = "sprite-reboots";
    std::string combined = SimulationResultToJson(*result);
    combined += '\n';
    combined += EventsToJsonl(recorder.runs(), metadata);
    combined += '\n';
    combined += TimeseriesToJsonl(sampler.runs(), metadata);
    return combined;
  }

  static WorkloadConfig* config_;
  static Trace* trace_;
};

WorkloadConfig* StreamingReplayTest::config_ = nullptr;
Trace* StreamingReplayTest::trace_ = nullptr;

TEST_F(StreamingReplayTest, StreamingSourceMatchesMaterializedTrace) {
  for (PolicyKind kind : AllPolicyKinds()) {
    const std::string baseline = RunSerialized(kind, nullptr, 0);
    ASSERT_FALSE(baseline.empty());

    // The materialized adapter, explicitly.
    MaterializedEventSource adapter(trace_);
    EXPECT_EQ(RunSerialized(kind, &adapter, 0), baseline)
        << PolicyKindName(kind) << ": adapter-fed replay diverged";

    // The streaming generator: no materialized trace anywhere in the path.
    const std::unique_ptr<EventSource> streaming = MakeWorkloadEventSource(*config_);
    EXPECT_EQ(RunSerialized(kind, streaming.get(), 0), baseline)
        << PolicyKindName(kind) << ": generator-fed replay diverged";
  }
}

TEST_F(StreamingReplayTest, ShardCountDoesNotChangeTheBytes) {
  for (PolicyKind kind : AllPolicyKinds()) {
    const std::string single_shard = RunSerialized(kind, nullptr, 1);
    ASSERT_FALSE(single_shard.empty());
    EXPECT_EQ(RunSerialized(kind, nullptr, 8), single_shard)
        << PolicyKindName(kind) << ": 8-shard directory diverged";
    EXPECT_EQ(RunSerialized(kind, nullptr, 64), single_shard)
        << PolicyKindName(kind) << ": 64-shard directory diverged";
  }
}

TEST_F(StreamingReplayTest, StreamingAndShardingComposeByteIdentically) {
  const std::string baseline = RunSerialized(PolicyKind::kNChance, nullptr, 1);
  ASSERT_FALSE(baseline.empty());
  const std::unique_ptr<EventSource> streaming = MakeWorkloadEventSource(*config_);
  EXPECT_EQ(RunSerialized(PolicyKind::kNChance, streaming.get(), 8), baseline);
}

TEST_F(StreamingReplayTest, ReusedSimulatorResetsTheSourceBetweenPolicies) {
  // One Simulator over one streaming source runs several policies: Run()
  // must Reset() the source so each replay sees the full sequence.
  const std::unique_ptr<EventSource> streaming = MakeWorkloadEventSource(*config_);
  SimulationConfig config = ReplayConfig(0);
  Simulator simulator(config, streaming.get());
  auto nchance = MakePolicy(PolicyKind::kNChance);
  Result<SimulationResult> first = simulator.Run(*nchance);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<SimulationResult> second = simulator.Run(*nchance);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(SimulationResultToJson(*first), SimulationResultToJson(*second));
}

}  // namespace
}  // namespace coopfs
