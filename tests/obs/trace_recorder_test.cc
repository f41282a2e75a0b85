// Event-level tracing (src/obs/trace_recorder.h, trace_sink.h).
//
// The load-bearing guarantees:
//   * Reconciliation — one run's counted spans must reproduce the
//     SimulationResult aggregates *exactly* (same counts, bit-identical
//     latency sums), so the events file is a trustworthy decomposition of
//     the metrics document, not an approximation of it.
//   * Determinism — identical (trace, config, policy) replays serialize to
//     byte-identical coopfs.events/v1 documents, across repeated runs and
//     across RunSimulationsParallel thread counts (one recorder per job).
//   * Transparency — attaching a recorder must not perturb the simulation.
//   * Round-trip — ParseEventsJsonl inverts EventsToJsonl exactly, and the
//     Perfetto export is structurally valid trace_event JSON that names
//     only the clients its records use.
#include "src/obs/trace_recorder.h"

#include <cstddef>
#include <cstdint>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/core/sweep.h"
#include "src/obs/metrics_exporter.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

class TraceRecorderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small Sprite-like trace under tight caches, so every mechanism the
    // recorder observes (forwards, recirculations, invalidations) fires.
    WorkloadConfig workload = SmallTestWorkloadConfig();
    workload.num_events = 30'000;
    trace_ = new Trace(GenerateWorkload(workload));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static SimulationConfig TestConfig() {
    SimulationConfig config;
    config.WithClientCacheMiB(1).WithServerCacheMiB(4);
    config.warmup_events = trace_->size() / 4;
    return config;
  }

  static SimulationResult RunTraced(PolicyKind kind, TraceRecorder& recorder,
                                    TraceRecorderOptions = {}) {
    SimulationConfig config = TestConfig();
    config.trace_recorder = &recorder;
    Simulator simulator(config, trace_);
    auto policy = MakePolicy(kind);
    Result<SimulationResult> result = simulator.Run(*policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *std::move(result);
  }

  static std::string Export(const TraceRecorder& recorder) {
    TraceExportMetadata metadata;
    metadata.seed = 7;
    metadata.trace_events = trace_->size();
    metadata.workload = "small-test";
    return EventsToJsonl(recorder.runs(), metadata);
  }

  static Trace* trace_;
};

Trace* TraceRecorderTest::trace_ = nullptr;

// ---- Reconciliation with SimulationResult ----

TEST_F(TraceRecorderTest, CountedSpansReconcileExactlyWithMetrics) {
  for (PolicyKind kind : AllPolicyKinds()) {
    TraceRecorder recorder;
    const SimulationResult result = RunTraced(kind, recorder);
    ASSERT_EQ(recorder.runs().size(), 1u);
    const TraceRun& run = recorder.runs().front();
    EXPECT_EQ(run.policy, result.policy_name);

    const TraceRecorder::LevelTotals totals = TraceRecorder::CountedTotals(run);
    EXPECT_EQ(totals.counted_reads, result.reads) << run.policy;
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      EXPECT_EQ(totals.counts[level], result.level_counts.Get(level))
          << run.policy << " level " << level;
      // Bit-exact, not EXPECT_NEAR: the recorder accumulates the same
      // doubles in the same order as Simulator::Run.
      EXPECT_EQ(totals.time_us[level], result.level_time_us[level])
          << run.policy << " level " << level;
    }
  }
}

TEST_F(TraceRecorderTest, OpRecordsReconcileWithSimCounters) {
  TraceRecorder recorder;
  const SimulationResult result = RunTraced(PolicyKind::kNChance, recorder);
  const TraceRun& run = recorder.runs().front();

  // SimulationResult.writes counts post-warm-up writes only; the recorder
  // keeps every write, so filter by the warm-up boundary.
  const std::uint64_t warmup = TestConfig().warmup_events;
  std::uint64_t counted_writes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t recirculations = 0;
  for (const OpRecord& op : run.ops) {
    counted_writes += (op.kind == TraceOpKind::kWrite && op.event_index >= warmup) ? 1 : 0;
    invalidations += op.kind == TraceOpKind::kInvalidation ? 1 : 0;
    recirculations += op.kind == TraceOpKind::kRecirculation ? 1 : 0;
  }
  EXPECT_EQ(counted_writes, result.writes);
  EXPECT_EQ(invalidations, result.counters.invalidations);
  EXPECT_EQ(recirculations, result.counters.recirculations);
  EXPECT_GT(recirculations, 0u) << "workload too small to exercise N-Chance";
}

TEST_F(TraceRecorderTest, ForwardedReadsCarryTheirHolder) {
  TraceRecorder recorder;
  const SimulationResult result = RunTraced(PolicyKind::kGreedy, recorder);
  const TraceRun& run = recorder.runs().front();

  std::uint64_t forwarded = 0;
  for (const ReadSpan& span : run.reads) {
    if (span.level == CacheLevel::kRemoteClient) {
      EXPECT_NE(span.forward_holder, kNoClient) << "remote hit without a holder";
      EXPECT_NE(span.forward_holder, span.client) << "forwarded to the requester itself";
      ++forwarded;
    } else {
      EXPECT_EQ(span.forward_holder, kNoClient);
    }
  }
  EXPECT_GT(forwarded, 0u) << "workload too small to exercise forwarding";
  EXPECT_EQ(forwarded, result.counters.remote_forwards);
}

TEST_F(TraceRecorderTest, DirectoryOpsAreOptInAndReconcile) {
  TraceRecorder without;
  RunTraced(PolicyKind::kGreedy, without);
  for (const OpRecord& op : without.runs().front().ops) {
    EXPECT_NE(op.kind, TraceOpKind::kDirectoryAdd);
    EXPECT_NE(op.kind, TraceOpKind::kDirectoryRemove);
    EXPECT_NE(op.kind, TraceOpKind::kDirectoryErase);
  }

  TraceRecorderOptions options;
  options.record_directory_ops = true;
  TraceRecorder with(options);
  const SimulationResult result = RunTraced(PolicyKind::kGreedy, with);
  std::uint64_t directory_ops = 0;
  for (const OpRecord& op : with.runs().front().ops) {
    directory_ops += (op.kind == TraceOpKind::kDirectoryAdd ||
                      op.kind == TraceOpKind::kDirectoryRemove ||
                      op.kind == TraceOpKind::kDirectoryErase)
                         ? 1
                         : 0;
  }
  EXPECT_EQ(directory_ops, result.counters.directory_ops);
  EXPECT_GT(directory_ops, 0u);
}

// ---- Transparency ----

TEST_F(TraceRecorderTest, AttachingARecorderDoesNotPerturbTheSimulation) {
  SimulationConfig config = TestConfig();
  Simulator untraced(config, trace_);
  auto policy = MakePolicy(PolicyKind::kNChance);
  Result<SimulationResult> baseline = untraced.Run(*policy);
  ASSERT_TRUE(baseline.ok());

  TraceRecorder recorder;
  const SimulationResult traced = RunTraced(PolicyKind::kNChance, recorder);
  // The serializer's shortest-round-trip doubles make equal results produce
  // equal bytes, so one comparison covers every metric.
  EXPECT_EQ(SimulationResultToJson(traced), SimulationResultToJson(*baseline));
}

// ---- Determinism ----

TEST_F(TraceRecorderTest, RepeatedRunsSerializeToIdenticalBytes) {
  TraceRecorder first;
  RunTraced(PolicyKind::kNChance, first);
  TraceRecorder second;
  RunTraced(PolicyKind::kNChance, second);
  EXPECT_EQ(first.runs(), second.runs());
  EXPECT_EQ(Export(first), Export(second));
}

TEST_F(TraceRecorderTest, SweepThreadCountDoesNotChangeTheBytes) {
  // One recorder per job: recorders are not thread-safe, and per-job
  // recording is what keeps parallel sweeps deterministic.
  auto run_sweep = [&](std::size_t threads) {
    std::vector<TraceRecorder> recorders(3);
    std::vector<SimulationJob> jobs(3);
    const PolicyKind kinds[] = {PolicyKind::kGreedy, PolicyKind::kNChance,
                                PolicyKind::kCentralCoord};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].config = TestConfig();
      jobs[i].config.trace_recorder = &recorders[i];
      jobs[i].kind = kinds[i];
    }
    auto results = RunSimulationsParallel(*trace_, jobs, threads);
    for (const auto& result : results) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
    std::string combined;
    for (const TraceRecorder& recorder : recorders) {
      combined += Export(recorder);
      combined += '\n';
    }
    return combined;
  };
  const std::string serial = run_sweep(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(run_sweep(3), serial) << "3-thread sweep diverged from serial";
}

// ---- JSONL round-trip and validation ----

TEST_F(TraceRecorderTest, JsonlRoundTripsExactly) {
  TraceRecorder recorder;
  RunTraced(PolicyKind::kNChance, recorder);
  const std::string jsonl = Export(recorder);

  Result<EventsDocument> parsed = ParseEventsJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->metadata.seed, 7u);
  EXPECT_EQ(parsed->metadata.trace_events, trace_->size());
  EXPECT_EQ(parsed->metadata.workload, "small-test");
  EXPECT_EQ(parsed->runs, recorder.runs());
  EXPECT_EQ(EventsToJsonl(parsed->runs, parsed->metadata), jsonl);
}

TEST_F(TraceRecorderTest, ValidationRejectsCorruptDocuments) {
  TraceRecorder recorder;
  RunTraced(PolicyKind::kGreedy, recorder);
  const std::string jsonl = Export(recorder);
  ASSERT_TRUE(ValidateEventsDocument(jsonl).ok());

  EXPECT_FALSE(ValidateEventsDocument("").ok());
  EXPECT_FALSE(ValidateEventsDocument("{\"type\":\"run\"}").ok()) << "missing header";

  std::string wrong_schema = jsonl;
  const std::string::size_type at = wrong_schema.find("coopfs.events/v1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 16, "coopfs.events/v9");
  EXPECT_FALSE(ValidateEventsDocument(wrong_schema).ok());

  std::string bad_level = jsonl;
  const std::string::size_type level_at = bad_level.find("\"server_disk\"");
  ASSERT_NE(level_at, std::string::npos);
  bad_level.replace(level_at, 13, "\"server_dusk\"");
  EXPECT_FALSE(ValidateEventsDocument(bad_level).ok());

  std::string truncated = jsonl.substr(0, jsonl.size() / 2);
  EXPECT_FALSE(ValidateEventsDocument(truncated).ok());
}

// Every id and count is read as its in-memory type: each of these once
// wrapped instead (client 4294967317 read back as client 21).
TEST_F(TraceRecorderTest, OutOfRangeFieldsAreDataLoss) {
  TraceRecorder recorder;
  RunTraced(PolicyKind::kNChance, recorder);
  const std::string jsonl = Export(recorder);
  ASSERT_TRUE(ParseEventsJsonl(jsonl).ok());
  const std::pair<const char*, const char*> kHostile[] = {
      {"client", "4294967317"}, {"file", "4294968155"}, {"block", "4294967296"},
      {"hops", "258"},          {"seq", "-1"},          {"num_clients", "4294967338"}};
  for (const auto& [key, value] : kHostile) {
    const std::string corrupt = std::regex_replace(
        jsonl, std::regex(std::string("\"") + key + "\":[0-9]+"),
        std::string("\"") + key + "\":" + value, std::regex_constants::format_first_only);
    ASSERT_NE(corrupt, jsonl) << key;
    EXPECT_EQ(ParseEventsJsonl(corrupt).status().code(), StatusCode::kDataLoss) << key;
  }
}

// ---- Perfetto export ----

TEST_F(TraceRecorderTest, PerfettoExportIsStructurallyValidTraceEventJson) {
  TraceRecorder recorder;
  RunTraced(PolicyKind::kNChance, recorder);
  RunTraced(PolicyKind::kGreedy, recorder);  // Multi-run: two processes.
  ASSERT_EQ(recorder.runs().size(), 2u);

  const std::string json = PerfettoTraceJson(recorder.runs());
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());

  const JsonValue* unit = parsed->FindString("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->AsString(), "ms");

  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0;
  std::size_t instant = 0;
  std::size_t metadata = 0;
  for (const JsonValue& event : events->items()) {
    ASSERT_TRUE(event.is_object());
    const JsonValue* ph = event.FindString("ph");
    ASSERT_NE(ph, nullptr);
    const std::string phase = ph->AsString();
    if (phase == "X") {
      ++complete;
      EXPECT_NE(event.Find("ts"), nullptr);
      EXPECT_NE(event.Find("dur"), nullptr);
      EXPECT_NE(event.Find("pid"), nullptr);
      EXPECT_NE(event.Find("tid"), nullptr);
    } else if (phase == "i") {
      ++instant;
    } else {
      EXPECT_EQ(phase, "M");
      ++metadata;
    }
  }
  std::size_t spans = 0;
  std::size_t ops = 0;
  for (const TraceRun& run : recorder.runs()) {
    spans += run.reads.size();
    ops += run.ops.size();
  }
  EXPECT_EQ(complete, spans);
  EXPECT_EQ(instant, ops);
  EXPECT_GT(metadata, 0u) << "process/thread name metadata missing";
}

// The tids that the export names with "thread_name" metadata records.
std::vector<std::uint64_t> NamedThreads(const std::string& perfetto) {
  Result<JsonValue> parsed = ParseJson(perfetto);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::uint64_t> tids;
  if (parsed.ok()) {
    for (const JsonValue& event : parsed->FindArray("traceEvents")->items()) {
      if (event.FindString("name")->AsString() == "thread_name") {
        tids.push_back(static_cast<std::uint64_t>(event.FindNumber("tid")->AsDouble()));
      }
    }
  }
  return tids;
}

// A run line's num_clients comes from the document, so it must not decide
// how many thread names are written: this two-line events document, which
// claims a million clients, once exported as 84,777,882 bytes.
TEST(PerfettoExportTest, NamesOnlyTheClientsTheRecordsUse) {
  const std::string hostile =
      "{\"type\":\"header\",\"schema\":\"coopfs.events/v1\",\"coopfs_version\":\"test\","
      "\"seed\":0,\"trace_events\":0}\n"
      "{\"type\":\"run\",\"run\":0,\"policy\":\"p\",\"num_clients\":1000000}\n";
  Result<EventsDocument> document = ParseEventsJsonl(hostile);
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  ASSERT_EQ(document->runs.size(), 1u);
  EXPECT_EQ(document->runs[0].num_clients, 1'000'000u);
  const std::string empty = PerfettoTraceJson(document->runs);
  EXPECT_LT(empty.size(), 200u);
  EXPECT_TRUE(NamedThreads(empty).empty());

  // Clients 7 and 3 read and write (7 twice); a directory erase has no
  // client. Exactly tids 3 and 7 are named, in id order.
  TraceRun run;
  run.policy = "p";
  run.num_clients = 1'000'000;
  ReadSpan read;
  read.client = 7;
  read.block = BlockId{1, 2};
  run.reads.push_back(read);
  read.seq = 3;
  run.reads.push_back(read);
  OpRecord write;
  write.seq = 1;
  write.client = 3;
  write.block = BlockId{1, 2};
  run.ops.push_back(write);
  OpRecord erase;
  erase.seq = 2;
  erase.kind = TraceOpKind::kDirectoryErase;
  erase.block = BlockId{1, 2};
  run.ops.push_back(erase);
  EXPECT_EQ(NamedThreads(PerfettoTraceJson({run})), (std::vector<std::uint64_t>{3, 7}));
}

}  // namespace
}  // namespace coopfs
