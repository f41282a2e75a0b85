// Randomized multi-thread stress for the concurrent serving path: full
// RunServe storms across shard counts (each run twice, with the same hit
// mix), skewed Zipf storms against pinned hit mixes, and direct mixed-op
// storms against a sharded CacheEngine. Every storm must end with each
// shard's cache/directory invariants intact (CheckCacheDirectoryConsistency).
// These tests are in the tsan preset's filter so the synchronization claims
// are checked, not assumed.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/policy_factory.h"
#include "src/engine/cache_engine.h"
#include "src/serve/serve_harness.h"
#include "src/sim/validation.h"

namespace coopfs {
namespace {

TEST(ServeStressTest, HarnessStormsStayConsistentAcrossShardCounts) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServeOptions options;
    options.client_threads = 8;
    options.shards = shards;
    options.num_clients = 32;
    options.ops = 20'000;
    options.warmup_ops = 2'000;
    options.num_files = 500;
    options.zipf_s = 1.1;  // Hot keys concentrate the load on few shards.
    options.seed = 100 + shards;
    options.config.client_cache_blocks = 64;
    options.config.server_cache_blocks = 256;

    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->consistent) << report->consistency_error;
    EXPECT_EQ(report->shards, shards);
    EXPECT_EQ(report->get_ops + report->put_ops, options.ops);

    // One thread at a time runs each shard, in seq order: the hit mix
    // repeats exactly.
    Result<ServeReport> again = RunServe(options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->get_level_counts, report->get_level_counts);
  }
}

// Each shard runs a fixed operation sequence whichever thread runs each of
// its rounds, so a skewed Zipf storm's per-level gets and puts are fixed by
// its options. The values were read from the storm that ended every round
// at one barrier. Each of the 3 streams draws 6 rounds, more than its ring
// of round buffers holds.
TEST(ServeStressTest, SkewedZipfStormsKeepPinnedHitMix) {
  struct Pinned {
    std::uint32_t shards;  // 0 derives 4 from 3 threads.
    double zipf_s;
    std::array<std::uint64_t, kNumCacheLevels> gets;
    std::uint64_t puts;
  };
  for (const Pinned& pinned : {Pinned{0, 0.9, {3187, 8294, 16362, 14201}, 17956},
                               Pinned{0, 1.1, {5606, 5566, 23214, 7658}, 17956},
                               Pinned{1, 0.9, {2631, 8502, 17134, 13777}, 17956},
                               Pinned{2, 0.9, {2975, 8416, 16798, 13855}, 17956}}) {
    SCOPED_TRACE("shards=" + std::to_string(pinned.shards) +
                 " zipf_s=" + std::to_string(pinned.zipf_s));
    ServeOptions options;
    options.client_threads = 3;
    options.shards = pinned.shards;
    options.num_clients = 12;
    options.ops = 60'000;
    options.warmup_ops = 6'000;
    options.get_fraction = 0.7;
    options.num_files = 200;
    options.zipf_s = pinned.zipf_s;
    options.config.client_cache_blocks = 64;
    options.config.server_cache_blocks = 256;

    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->shards, pinned.shards == 0 ? 4u : pinned.shards);
    EXPECT_EQ(report->get_level_counts, pinned.gets);
    EXPECT_EQ(report->put_ops, pinned.puts);
  }
}

TEST(ServeStressTest, HarnessStormSurvivesRandomSeeds) {
  Rng seed_rng(20260810);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = seed_rng.Next();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ServeOptions options;
    options.client_threads = 8;
    options.num_clients = 16;
    options.ops = 20'000;
    options.warmup_ops = 1'000;
    options.num_files = 300;
    options.seed = seed;
    options.policy = (round % 2 == 0) ? PolicyKind::kNChance : PolicyKind::kGreedy;
    options.config.client_cache_blocks = 32;
    options.config.server_cache_blocks = 128;

    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->consistent) << report->consistency_error;
  }
}

// Drive the sharded engine directly from many threads with a mixed op
// stream — Lookup, Admit, Evict, ReadAttr, and the occasional Reboot — then
// check every shard's directory against its caches.
TEST(ServeStressTest, DirectEngineStormKeepsEveryShardConsistent) {
  SimulationConfig config;
  config.client_cache_blocks = 64;
  config.server_cache_blocks = 256;
  config.num_clients = 24;
  config.seed = 77;

  const PolicyParams params;
  CacheEngine engine(
      config, config.num_clients,
      [&params] { return MakePolicy(PolicyKind::kNChance, params); }, 4);
  ASSERT_TRUE(engine.synchronized());

  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 8'000;
  std::atomic<std::uint64_t> ticket{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitMix64(0xfeedull + static_cast<std::uint64_t>(t)).Next());
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const BlockId block{static_cast<FileId>(rng.NextBelow(211)),
                            static_cast<BlockIndex>(rng.NextBelow(4))};
        const ClientId client =
            static_cast<ClientId>(rng.NextBelow(config.num_clients));
        const Micros now =
            static_cast<Micros>(ticket.fetch_add(1, std::memory_order_relaxed) * 10);
        switch (rng.NextBelow(10)) {
          case 0:
            engine.Admit(client, block, now);
            break;
          case 1:
            engine.Evict(client, block.file);
            break;
          case 2:
            engine.ReadAttr(client, block.file);
            break;
          case 3:
            if (rng.NextBelow(100) == 0) {
              engine.Reboot(client);
              break;
            }
            [[fallthrough]];
          default:
            engine.Lookup(client, block, now);
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    const Status status = CheckCacheDirectoryConsistency(engine.context(shard));
    EXPECT_TRUE(status.ok()) << "shard " << shard << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace coopfs
