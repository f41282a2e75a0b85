// Unit tests for the CacheEngine layer (src/engine/cache_engine.h): the
// fast-path operation semantics the simulator depends on, the latency
// helpers, and the sharded concurrent-mode construction contract. The
// byte-identity of replay-through-the-engine is held separately by
// engine_oracle_test.cc.
#include "src/engine/cache_engine.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/validation.h"

namespace coopfs {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.client_cache_blocks = 8;
  config.server_cache_blocks = 16;
  config.num_clients = 4;
  config.warmup_events = 0;
  config.seed = 7;
  return config;
}

TEST(CacheEngineTest, ColdLookupReachesDiskThenHitsLocal) {
  const SimulationConfig config = SmallConfig();
  std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kNChance);
  CacheEngine engine(config, config.num_clients, *policy);
  EXPECT_EQ(engine.num_shards(), 1u);
  EXPECT_FALSE(engine.synchronized());

  const BlockId block{3, 0};
  const EngineOutcome cold = engine.Lookup(0, block);
  EXPECT_EQ(cold.read.level, CacheLevel::kServerDisk);
  EXPECT_EQ(cold.latency_us, OutcomeLatency(cold.read, config));

  const EngineOutcome warm = engine.Lookup(0, block);
  EXPECT_EQ(warm.read.level, CacheLevel::kLocalMemory);
  EXPECT_EQ(warm.latency_us, config.network.memory_copy);
}

TEST(CacheEngineTest, AdmitInstallsAtWriterAndReturnsWriteLatency) {
  const SimulationConfig config = SmallConfig();
  std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kNChance);
  CacheEngine engine(config, config.num_clients, *policy);

  const BlockId block{9, 2};
  const Micros put_latency = engine.Admit(1, block);
  EXPECT_EQ(put_latency, WriteLatency(config));
  EXPECT_EQ(put_latency, config.network.memory_copy + 2 * config.network.per_hop +
                             config.network.block_transfer);

  const EngineOutcome read = engine.Lookup(1, block);
  EXPECT_EQ(read.read.level, CacheLevel::kLocalMemory);
}

TEST(CacheEngineTest, EvictDropsEveryCopy) {
  const SimulationConfig config = SmallConfig();
  std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kNChance);
  CacheEngine engine(config, config.num_clients, *policy);

  const BlockId block{5, 1};
  engine.Lookup(2, block);
  ASSERT_EQ(engine.Lookup(2, block).read.level, CacheLevel::kLocalMemory);

  engine.Evict(2, block.file);
  EXPECT_EQ(engine.Lookup(2, block).read.level, CacheLevel::kServerDisk);
}

TEST(CacheEngineTest, ReadAttrRenewsTheFilesCachedBlocks) {
  const SimulationConfig config = SmallConfig();
  std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kBaseline);
  CacheEngine engine(config, config.num_clients, *policy);

  // Fill client 0's 8-block cache with {1,0} as its least recently used
  // block, then renew file 1 through an attribute refresh.
  engine.Lookup(0, BlockId{1, 0});
  for (BlockIndex b = 0; b < 7; ++b) {
    engine.Lookup(0, BlockId{2, b});
  }
  engine.ReadAttr(0, 1);

  // The next insertion evicts {2,0}, now the oldest, instead of {1,0}.
  engine.Lookup(0, BlockId{3, 0});
  EXPECT_EQ(engine.Lookup(0, BlockId{1, 0}).read.level, CacheLevel::kLocalMemory);
  EXPECT_NE(engine.Lookup(0, BlockId{2, 0}).read.level, CacheLevel::kLocalMemory);
}

TEST(CacheEngineTest, RebootLosesTheClientsCache) {
  const SimulationConfig config = SmallConfig();
  std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kNChance);
  CacheEngine engine(config, config.num_clients, *policy);

  const BlockId block{6, 3};
  engine.Lookup(3, block);
  ASSERT_EQ(engine.Lookup(3, block).read.level, CacheLevel::kLocalMemory);

  engine.Reboot(3);
  const EngineOutcome after = engine.Lookup(3, block);
  EXPECT_NE(after.read.level, CacheLevel::kLocalMemory);
}

TEST(CacheEngineTest, OutcomeLatencyChargesTheFigure3Model) {
  const SimulationConfig config = SmallConfig();
  ReadOutcome local;
  local.level = CacheLevel::kLocalMemory;
  EXPECT_EQ(OutcomeLatency(local, config), config.network.memory_copy);

  ReadOutcome remote;
  remote.level = CacheLevel::kRemoteClient;
  remote.hops = 4;
  remote.data_transfer = true;
  EXPECT_EQ(OutcomeLatency(remote, config),
            config.network.memory_copy + 4 * config.network.per_hop +
                config.network.block_transfer);

  ReadOutcome disk;
  disk.level = CacheLevel::kServerDisk;
  disk.hops = 2;
  disk.data_transfer = true;
  EXPECT_EQ(OutcomeLatency(disk, config),
            config.network.memory_copy + 2 * config.network.per_hop +
                config.network.block_transfer + config.disk.access_time);
}

TEST(CacheEngineTest, ShardedConstructionRoundsUpAndSplitsCapacity) {
  SimulationConfig config = SmallConfig();
  config.client_cache_blocks = 32;
  config.server_cache_blocks = 64;
  const PolicyParams params;
  CacheEngine engine(config, config.num_clients,
                     [&params] { return MakePolicy(PolicyKind::kNChance, params); }, 3);
  EXPECT_EQ(engine.num_shards(), 4u);  // Rounded up to a power of two.
  EXPECT_TRUE(engine.synchronized());

  std::set<std::uint64_t> seeds;
  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    const SimulationConfig& shard_config = engine.shard_config(shard);
    EXPECT_EQ(shard_config.client_cache_blocks, 32u / 4u);
    EXPECT_EQ(shard_config.server_cache_blocks, 64u / 4u);
    seeds.insert(shard_config.seed);
  }
  EXPECT_EQ(seeds.size(), engine.num_shards()) << "per-shard seeds must differ";
}

// Above 16,384 clients a SimContext shards its Directory by the same file
// hash the engine routes by, so each engine shard's files would reach only
// some of its directory shards; the engine keeps one per engine shard.
TEST(CacheEngineTest, ShardedEngineKeepsOneDirectoryShardPerEngineShard) {
  SimulationConfig config = SmallConfig();
  config.num_clients = 40'000;
  CacheEngine engine(config, config.num_clients,
                     [] { return MakePolicy(PolicyKind::kNChance); }, 2);
  ASSERT_EQ(engine.num_shards(), 2u);
  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    EXPECT_EQ(engine.context(shard).directory().num_shards(), 1u) << "shard " << shard;
  }
}

TEST(CacheEngineTest, ShardRoutingIsStableAndInRange) {
  const SimulationConfig config = SmallConfig();
  CacheEngine engine(config, config.num_clients,
                     [] { return MakePolicy(PolicyKind::kGreedy); }, 8);
  for (FileId file = 0; file < 1000; ++file) {
    const std::uint32_t shard = engine.ShardForFile(file);
    EXPECT_LT(shard, engine.num_shards());
    EXPECT_EQ(shard, engine.ShardForFile(file)) << "routing must be deterministic";
  }
  // Pinned: SplitMix64(file).Next() & 7. A change here reshuffles every
  // sharded engine's files.
  const std::vector<std::uint32_t> pinned = {7, 1, 6, 5, 2, 2, 0, 7, 6, 4, 2, 5};
  for (FileId file = 0; file < pinned.size(); ++file) {
    EXPECT_EQ(engine.ShardForFile(file), pinned[file]) << "file " << file;
  }
}

TEST(CacheEngineTest, ShardedOpsKeepEveryShardConsistent) {
  SimulationConfig config = SmallConfig();
  config.client_cache_blocks = 16;
  config.server_cache_blocks = 32;
  CacheEngine engine(config, config.num_clients,
                     [] { return MakePolicy(PolicyKind::kNChance); }, 4);

  Micros now = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const BlockId block{static_cast<FileId>(i % 97), static_cast<BlockIndex>(i % 5)};
    const ClientId client = static_cast<ClientId>(i % config.num_clients);
    now += 50;
    switch (i % 5) {
      case 0:
      case 1:
      case 2:
        engine.Lookup(client, block, now);
        break;
      case 3:
        engine.Admit(client, block, now);
        break;
      default:
        engine.Evict(client, block.file);
        break;
    }
    if (i % 971 == 0) {
      engine.Reboot(client);
    }
  }
  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    const Status status = CheckCacheDirectoryConsistency(engine.context(shard));
    EXPECT_TRUE(status.ok()) << "shard " << shard << ": " << status.ToString();
  }
}

TEST(CacheEngineTest, ConcurrentClockNeverMovesBackwards) {
  const SimulationConfig config = SmallConfig();
  CacheEngine engine(config, config.num_clients,
                     [] { return MakePolicy(PolicyKind::kBaseline); }, 1);
  const BlockId block{1, 0};
  engine.Lookup(0, block, 1000);
  EXPECT_EQ(engine.context(0).now(), 1000);
  engine.Lookup(0, block, 400);  // Stale timestamp from a racing client.
  EXPECT_EQ(engine.context(0).now(), 1000);
  engine.Lookup(0, block, 2000);
  EXPECT_EQ(engine.context(0).now(), 2000);
}

}  // namespace
}  // namespace coopfs
