// Pins every policy's replay outputs on one small Sprite trace.
//
// The golden tests pin only the model tables of Figures 1 and 3, and the
// engine and victim oracles compare the simulator with itself. This grid
// fixes what each policy computes: hit counts by level, server load by
// Figure 6 segment, the replay counters and the write accounting, under
// write-through and under delayed writes. The write delay outlasts the
// trace, so no timed flush fires and dirty copies meet other clients'
// reads, evictions and reboots. Reboot churn is on.
//
// A change to the shared read or eviction paths must reproduce every row.
// When a change moves a row on purpose, the failure prints the new row to
// paste in, and the change must say why the outputs moved.
#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

constexpr std::uint64_t kEvents = 60'000;
constexpr Micros kNeverFlushed = Micros{1} << 50;  // Far longer than the trace.

struct PinnedOutputs {
  // Reads by level: local, remote client, server memory, disk.
  std::array<std::uint64_t, kNumCacheLevels> levels{};
  // Server load units: server memory, remote client, disk, other.
  std::array<std::uint64_t, kNumServerLoadKinds> load{};
  // remote_forwards, recirculations, invalidations, directory_ops.
  std::array<std::uint64_t, 4> counters{};
  // writes, flushed_writes, absorbed_writes, lost_writes.
  std::array<std::uint64_t, 4> writes{};

  friend bool operator==(const PinnedOutputs&, const PinnedOutputs&) = default;
};

struct PinCase {
  PolicyKind kind;
  WritePolicy write_policy;
  PinnedOutputs expected;
};

std::string CaseName(PolicyKind kind, WritePolicy write_policy) {
  std::string name = std::string(PolicyKindName(kind)) +
                     (write_policy == WritePolicy::kWriteThrough ? "_write_through"
                                                                 : "_delayed_write");
  for (char& c : name) {
    if (c == '-') {
      c = '_';  // gtest parameter names must be identifiers.
    }
  }
  return name;
}

void PrintTo(const PinCase& pin, std::ostream* out) {
  *out << CaseName(pin.kind, pin.write_policy);
}

template <std::size_t N>
std::string Braced(const std::array<std::uint64_t, N>& values) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < N; ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "}";
  return out.str();
}

// The outputs as a row of the table below, ready to paste.
std::string AsRow(const PinnedOutputs& outputs) {
  return "{" + Braced(outputs.levels) + ", " + Braced(outputs.load) + ", " +
         Braced(outputs.counters) + ", " + Braced(outputs.writes) + "}";
}

const Trace& PinTrace() {
  static const Trace trace = [] {
    WorkloadConfig workload = SpriteWorkloadConfig(5);
    workload.num_events = kEvents;
    workload.mean_reboots_per_client = 2.0;
    return GenerateWorkload(workload);
  }();
  return trace;
}

PinnedOutputs Replay(PolicyKind kind, WritePolicy write_policy) {
  SimulationConfig config;
  config.client_cache_blocks = 64;
  config.server_cache_blocks = 1024;
  config.warmup_events = SpriteWarmupEvents(kEvents);
  config.write_policy = write_policy;
  config.write_delay = kNeverFlushed;

  std::unique_ptr<Policy> policy = MakePolicy(kind);
  Result<SimulationResult> result = Simulator(config, &PinTrace()).Run(*policy);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  PinnedOutputs outputs;
  if (!result.ok()) {
    return outputs;
  }
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    outputs.levels[level] = result->level_counts.Get(level);
  }
  for (std::size_t kind_index = 0; kind_index < kNumServerLoadKinds; ++kind_index) {
    outputs.load[kind_index] =
        result->server_load.Units(static_cast<ServerLoadKind>(kind_index));
  }
  const SimCounters& counters = result->counters;
  outputs.counters = {counters.remote_forwards, counters.recirculations, counters.invalidations,
                      counters.directory_ops};
  outputs.writes = {result->writes, result->flushed_writes, result->absorbed_writes,
                    result->lost_writes};
  return outputs;
}

constexpr WritePolicy kThrough = WritePolicy::kWriteThrough;
constexpr WritePolicy kDelayed = WritePolicy::kDelayedWrite;

const std::vector<PinCase>& PinTable() {
  // Each row: {levels}, {load}, {counters}, {writes}, as in PinnedOutputs.
  static const std::vector<PinCase> table = {
      {PolicyKind::kBaseline, kThrough,
       {{7723, 0, 2882, 10308}, {11528, 0, 61848, 143},
        {0, 0, 231, 66208}, {4752, 0, 0, 0}}},
      {PolicyKind::kBaseline, kDelayed,
       {{7723, 158, 3415, 9617}, {13660, 316, 57702, 143},
        {389, 0, 231, 66208}, {4752, 2937, 1363, 424}}},
      {PolicyKind::kDirectCoop, kThrough,
       {{7723, 2545, 1691, 8954}, {6764, 0, 53724, 143},
        {0, 0, 231, 66208}, {4752, 0, 0, 0}}},
      {PolicyKind::kDirectCoop, kDelayed,
       {{7723, 2688, 1967, 8535}, {7868, 286, 51210, 143},
        {329, 0, 231, 66208}, {4752, 2937, 1363, 424}}},
      {PolicyKind::kGreedy, kThrough,
       {{7723, 965, 2630, 9595}, {10520, 1930, 57570, 143},
        {1431, 0, 231, 66208}, {4752, 0, 0, 0}}},
      {PolicyKind::kGreedy, kDelayed,
       {{7723, 985, 3181, 9024}, {12724, 1970, 54144, 143},
        {1547, 0, 231, 66208}, {4752, 2937, 1363, 424}}},
      {PolicyKind::kCentralCoord, kThrough,
       {{2741, 6181, 4955, 7036}, {19820, 12362, 42216, 63},
        {12133, 0, 78, 99626}, {4752, 0, 0, 0}}},
      {PolicyKind::kCentralCoord, kDelayed,
       {{2741, 6054, 5256, 6862}, {21024, 12108, 41172, 63},
        {11775, 0, 78, 99626}, {4752, 4165, 494, 83}}},
      {PolicyKind::kNChance, kThrough,
       {{6764, 3068, 2894, 8187}, {11576, 6136, 49122, 40775},
        {5842, 31004, 3126, 131966}, {4752, 0, 0, 0}}},
      {PolicyKind::kNChance, kDelayed,
       {{6745, 2614, 3506, 8048}, {14024, 5228, 48288, 41861},
        {4785, 31196, 3260, 132628}, {4752, 3183, 1232, 345}}},
      {PolicyKind::kNChanceIdle, kThrough,
       {{7473, 2181, 2611, 8648}, {10444, 4362, 51888, 34518},
        {4213, 27143, 2420, 120836}, {4752, 0, 0, 0}}},
      {PolicyKind::kNChanceIdle, kDelayed,
       {{7472, 1879, 3216, 8346}, {12864, 3758, 50076, 34940},
        {3491, 26830, 2409, 120155}, {4752, 3041, 1324, 400}}},
      {PolicyKind::kHashDistributed, kThrough,
       {{2872, 5711, 5022, 7308}, {20088, 0, 43848, 63},
        {0, 0, 78, 99626}, {4752, 0, 0, 0}}},
      {PolicyKind::kHashDistributed, kDelayed,
       {{2864, 5568, 5332, 7149}, {21328, 30, 42894, 63},
        {165, 0, 78, 99626}, {4752, 4165, 494, 83}}},
      {PolicyKind::kWeightedLru, kThrough,
       {{6767, 3097, 2846, 8203}, {11384, 6194, 49218, 72997},
        {5824, 30456, 3058, 130806}, {4752, 0, 0, 0}}},
      {PolicyKind::kWeightedLru, kDelayed,
       {{6749, 2646, 3493, 8025}, {13972, 5292, 48150, 74177},
        {4826, 30403, 3181, 130962}, {4752, 3181, 1237, 337}}},
      {PolicyKind::kBestCase, kThrough,
       {{7723, 4537, 2484, 6169}, {9936, 9074, 37014, 143},
        {8266, 0, 231, 66208}, {4752, 0, 0, 0}}},
      {PolicyKind::kBestCase, kDelayed,
       {{7723, 4211, 3134, 5845}, {12536, 8422, 35070, 143},
        {7487, 0, 231, 66208}, {4752, 2937, 1363, 424}}},
  };
  return table;
}

class PolicyOutputPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(PolicyOutputPin, ReplayMatchesPinnedOutputs) {
  const PinCase& pin = GetParam();
  const PinnedOutputs actual = Replay(pin.kind, pin.write_policy);
  EXPECT_EQ(actual, pin.expected) << "pinned: " << AsRow(pin.expected) << "\n"
                                  << "actual: " << AsRow(actual);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyOutputPin, ::testing::ValuesIn(PinTable()),
    [](const ::testing::TestParamInfo<PinCase>& row) {
      return CaseName(row.param.kind, row.param.write_policy);
    });

// A policy added to AllPolicyKinds must be pinned too.
TEST(PolicyOutputPinTable, CoversEveryPolicyUnderBothWritePolicies) {
  std::vector<std::string> pinned;
  for (const PinCase& pin : PinTable()) {
    pinned.push_back(CaseName(pin.kind, pin.write_policy));
  }
  for (PolicyKind kind : AllPolicyKinds()) {
    for (WritePolicy write_policy : {kThrough, kDelayed}) {
      const std::string name = CaseName(kind, write_policy);
      EXPECT_NE(std::find(pinned.begin(), pinned.end(), name), pinned.end())
          << name << " is not pinned; its row is " << AsRow(Replay(kind, write_policy));
    }
  }
  EXPECT_EQ(pinned.size(), AllPolicyKinds().size() * 2);
}

}  // namespace
}  // namespace coopfs
