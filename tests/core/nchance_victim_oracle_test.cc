// Exactness oracle for N-Chance's victim-class sublists.
//
// NChancePolicy finds a receiving peer's ripple-free victim (paper §2.4:
// the oldest duplicated block, else the oldest recirculating block with the
// fewest recirculations left, else the LRU block) on BlockCache's
// victim-class sublists. ScanNChancePolicy below is the same algorithm with
// that rule written as two ScanFromLru passes over the whole cache, the
// implementation the sublists replaced. It exists only here, as the
// reference: both must pick the same victims, charge the same messages and
// set the same flags, so every replay must export the same
// coopfs.metrics/v1 bytes.
//
// Client caches of 1 MiB fill with flag-marked singlets and recirculating
// copies within a few hundred thousand Sprite events, so the replays below
// reach the recirculating rule; caches of 256 KiB also fill entirely with
// flag-marked singlets and reach the LRU fallback. The reference counts its
// picks per rule and the test requires each rule it expects to have picked.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "src/core/greedy.h"
#include "src/core/nchance.h"
#include "src/obs/metrics_exporter.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

class ScanNChancePolicy : public GreedyPolicy {
 public:
  explicit ScanNChancePolicy(int n) : n_(n) {}

  std::string Name() const override { return "N-Chance (n=" + std::to_string(n_) + ")"; }

  // Victims of MakeSpaceWithoutForwarding, by the rule that picked them.
  std::uint64_t duplicate_picks = 0;
  std::uint64_t recirculating_picks = 0;
  std::uint64_t lru_picks = 0;

 protected:
  void OnLocalHit(ClientId client, CacheEntry& entry) override {
    (void)client;
    entry.recirculation_count = 0;
  }

  void OnRemoteHit(ClientId client, ClientId holder, BlockId block) override {
    (void)client;
    CacheEntry* entry = ctx().client_cache(holder).Find(block);
    if (entry == nullptr) {
      return;
    }
    if (entry->recirculating()) {
      FlushIfDirty(holder, block);
      DropLocal(holder, block);
      return;
    }
    entry->singlet_flag = false;
  }

  void OnBlockReplicated(BlockId block) override {
    for (ClientId holder : ctx().directory().Holders(block)) {
      if (CacheEntry* entry = ctx().client_cache(holder).Find(block); entry != nullptr) {
        entry->singlet_flag = false;
        entry->recirculation_count = 0;
      }
    }
  }

  void EvictForInsert(ClientId client) override {
    CacheEntry* victim = ctx().client_cache(client).Lru();
    if (victim == nullptr) {
      return;
    }
    if (n_ == 0) {
      Discard(client, victim->block);
      return;
    }
    HandleEviction(client, *victim);
  }

 private:
  void HandleEviction(ClientId client, CacheEntry& victim) {
    const BlockId block = victim.block;
    FlushIfDirty(client, block);
    bool is_singlet;
    int count;
    if (victim.recirculating()) {
      is_singlet = true;
      count = victim.recirculation_count - 1;
    } else if (victim.singlet_flag) {
      is_singlet = true;
      count = n_;
    } else {
      ctx().ChargeSmallMessages(2);
      is_singlet = ctx().directory().IsSingletHeldBy(block, client);
      count = n_;
    }
    if (!is_singlet || count <= 0) {
      DropLocal(client, block);
      return;
    }
    const ClientId peer = PickRandomPeer(client);
    if (peer == kNoClient) {
      DropLocal(client, block);
      return;
    }
    ctx().CountRecirculation();
    ctx().TraceRecirculation(client, peer, block, count);
    DropLocal(client, block);
    ReceiveForwarded(peer, block, count);
  }

  void ReceiveForwarded(ClientId peer, BlockId block, int count) {
    BlockCache& cache = ctx().client_cache(peer);
    if (!cache.CanInsert()) {
      return;
    }
    if (CacheEntry* existing = cache.Find(block); existing != nullptr) {
      existing->recirculation_count =
          static_cast<std::uint8_t>(std::max<int>(existing->recirculation_count, count));
      return;
    }
    ctx().directory().AddHolder(block, peer);
    while (cache.Full()) {
      MakeSpaceWithoutForwarding(peer);
    }
    CacheEntry& entry = cache.Insert(block);
    entry.recirculation_count = static_cast<std::uint8_t>(count);
    entry.singlet_flag = true;
    entry.last_ref = ctx().now();
  }

  void MakeSpaceWithoutForwarding(ClientId peer) {
    BlockCache& cache = ctx().client_cache(peer);
    CacheEntry* dup_victim = cache.ScanFromLru([this](CacheEntry& entry) {
      if (entry.recirculating() || entry.singlet_flag) {
        return false;
      }
      ctx().ChargeSmallMessages(2);
      if (ctx().directory().IsDuplicated(entry.block)) {
        return true;
      }
      entry.singlet_flag = true;
      return false;
    });
    if (dup_victim != nullptr) {
      ++duplicate_picks;
      Discard(peer, dup_victim->block);
      return;
    }
    CacheEntry* best = nullptr;
    cache.ScanFromLru([&best](CacheEntry& entry) {
      if (entry.recirculating() &&
          (best == nullptr || entry.recirculation_count < best->recirculation_count)) {
        best = &entry;
      }
      return false;
    });
    if (best != nullptr) {
      ++recirculating_picks;
      Discard(peer, best->block);
      return;
    }
    if (CacheEntry* lru = cache.Lru(); lru != nullptr) {
      ++lru_picks;
      Discard(peer, lru->block);
    }
  }

  void Discard(ClientId peer, BlockId block) {
    FlushIfDirty(peer, block);
    DropLocal(peer, block);
  }

  ClientId PickRandomPeer(ClientId client) {
    const std::uint32_t n = ctx().num_clients();
    if (n <= 1) {
      return kNoClient;
    }
    auto peer = static_cast<ClientId>(ctx().rng().NextBelow(n - 1));
    if (peer >= client) {
      ++peer;
    }
    return peer;
  }

  int n_;
};

struct OracleCase {
  const char* name;
  int n;
  WritePolicy write_policy;
  double reboots_per_client;
  std::size_t client_blocks = 128;  // 1 MiB.
};

// Small enough that some peers hold only flag-marked singlets.
constexpr std::size_t kTinyClientBlocks = 32;

void PrintTo(const OracleCase& row, std::ostream* out) { *out << row.name; }

constexpr std::uint64_t kEvents = 300'000;

Trace SpriteTrace(double reboots_per_client) {
  WorkloadConfig workload = SpriteWorkloadConfig(3);
  workload.num_events = kEvents;
  workload.mean_reboots_per_client = reboots_per_client;
  return GenerateWorkload(workload);
}

class NChanceVictimOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(NChanceVictimOracle, SublistsExportTheScanRulesBytes) {
  const OracleCase& row = GetParam();
  const Trace trace = SpriteTrace(row.reboots_per_client);
  SimulationConfig config;
  config.WithServerCacheMiB(16);
  config.client_cache_blocks = row.client_blocks;
  config.write_policy = row.write_policy;
  config.warmup_events = kEvents / 4;
  config.seed = 5;

  ScanNChancePolicy reference(row.n);
  Result<SimulationResult> expected = Simulator(config, &trace).Run(reference);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  NChancePolicy policy(row.n);
  Result<SimulationResult> actual = Simulator(config, &trace).Run(policy);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  EXPECT_EQ(SimulationResultToJson(*expected), SimulationResultToJson(*actual));
  // The replay reached the regime where the peer's cache holds no
  // duplicate and the recirculating rule picks.
  EXPECT_GT(reference.duplicate_picks, 0u);
  EXPECT_GT(reference.recirculating_picks, 0u);
  if (row.client_blocks <= kTinyClientBlocks) {
    EXPECT_GT(reference.lru_picks, 0u);
  }
}

// n = 0 forwards nothing, so it makes no duplicate or recirculating pick and
// cannot share the body above. With 256 KiB client caches, dirty victims are
// evicted before their 30 s flush, and both policies must write them back.
TEST(NChanceVictimOracleTest, ZeroChanceWritesBackDirtyVictims) {
  const Trace trace = SpriteTrace(0.0);
  SimulationConfig config;
  config.WithServerCacheMiB(16);
  config.client_cache_blocks = kTinyClientBlocks;
  config.write_policy = WritePolicy::kDelayedWrite;
  config.warmup_events = kEvents / 4;
  config.seed = 5;

  ScanNChancePolicy reference(0);
  Result<SimulationResult> expected = Simulator(config, &trace).Run(reference);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  NChancePolicy policy(0);
  Result<SimulationResult> actual = Simulator(config, &trace).Run(policy);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  EXPECT_GT(expected->flushed_writes, 0u);
  EXPECT_EQ(expected->flushed_writes, actual->flushed_writes);
  EXPECT_EQ(SimulationResultToJson(*expected), SimulationResultToJson(*actual));
}

INSTANTIATE_TEST_SUITE_P(
    Sprite, NChanceVictimOracle,
    ::testing::Values(OracleCase{"n1_write_through", 1, WritePolicy::kWriteThrough, 0.0},
                      OracleCase{"n2_write_through", 2, WritePolicy::kWriteThrough, 0.0},
                      OracleCase{"n3_write_through", 3, WritePolicy::kWriteThrough, 0.0},
                      OracleCase{"n8_write_through", 8, WritePolicy::kWriteThrough, 0.0},
                      OracleCase{"n10_write_through", 10, WritePolicy::kWriteThrough, 0.0},
                      OracleCase{"n1_delayed_write", 1, WritePolicy::kDelayedWrite, 0.0},
                      OracleCase{"n2_delayed_write", 2, WritePolicy::kDelayedWrite, 0.0},
                      OracleCase{"n3_delayed_write", 3, WritePolicy::kDelayedWrite, 0.0},
                      OracleCase{"n8_delayed_write", 8, WritePolicy::kDelayedWrite, 0.0},
                      OracleCase{"n10_delayed_write", 10, WritePolicy::kDelayedWrite, 0.0},
                      OracleCase{"n2_reboot_churn", 2, WritePolicy::kWriteThrough, 2.0},
                      OracleCase{"n2_256k_write_through", 2, WritePolicy::kWriteThrough, 0.0,
                                 kTinyClientBlocks},
                      OracleCase{"n3_256k_delayed_write", 3, WritePolicy::kDelayedWrite, 0.0,
                                 kTinyClientBlocks}),
    [](const ::testing::TestParamInfo<OracleCase>& row) { return row.param.name; });

}  // namespace
}  // namespace coopfs
