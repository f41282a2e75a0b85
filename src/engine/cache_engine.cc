#include "src/engine/cache_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace coopfs {

Micros OutcomeLatency(const ReadOutcome& outcome, const SimulationConfig& config) {
  const NetworkModel& net = config.network;
  Micros latency = net.memory_copy;
  latency += net.per_hop * outcome.hops;
  if (outcome.data_transfer) {
    latency += net.block_transfer;
  }
  if (outcome.level == CacheLevel::kServerDisk) {
    latency += config.disk.access_time;
  }
  return latency;
}

Micros WriteLatency(const SimulationConfig& config) {
  const NetworkModel& net = config.network;
  return net.memory_copy + 2 * net.per_hop + net.block_transfer;
}

CacheEngine::CacheEngine(const SimulationConfig& config, std::uint32_t num_clients,
                         Policy& policy) {
  auto shard = std::make_unique<Shard>();
  shard->config = &config;
  shard->context = std::make_unique<SimContext>(config, num_clients,
                                                policy.ClientCacheBlocks(config),
                                                policy.ServerCacheBlocks(config));
  shard->policy = &policy;
  policy.Attach(*shard->context);
  shards_.push_back(std::move(shard));
  shard_mask_ = 0;
  synchronized_ = false;
}

CacheEngine::CacheEngine(const SimulationConfig& config, std::uint32_t num_clients,
                         const EnginePolicyFactory& factory, std::uint32_t shards) {
  std::uint32_t count = 1;
  while (count < shards) {
    count <<= 1;
  }
  shard_mask_ = count - 1;
  synchronized_ = true;
  shards_.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    auto shard = std::make_unique<Shard>();
    auto shard_config = std::make_unique<SimulationConfig>(config);
    // Each shard is an independent world holding the files that hash to it;
    // dividing the capacities keeps aggregate simulated memory equal to the
    // configuration (minimum one block so tiny configs stay runnable).
    shard_config->client_cache_blocks =
        std::max<std::size_t>(1, config.client_cache_blocks / count);
    shard_config->server_cache_blocks =
        std::max<std::size_t>(1, config.server_cache_blocks / count);
    // Distinct per-shard seed (SplitMix64 increment) so policies' random
    // choices decorrelate across shards.
    shard_config->seed = config.seed + 0x9e3779b97f4a7c15ull * (s + 1);
    // Engine shards already split files by the hash a sharded Directory
    // would route them by, so one directory shard per engine shard.
    shard_config->directory_shards = 1;
    // These attachments are documented as unsynchronized (config.h); a
    // multi-threaded engine must not share them across shards.
    shard_config->trace_recorder = nullptr;
    shard_config->snapshot_sampler = nullptr;
    shard_config->arena = nullptr;
    shard->owned_config = std::move(shard_config);
    shard->config = shard->owned_config.get();
    shard->owned_policy = factory();
    assert(shard->owned_policy != nullptr);
    shard->policy = shard->owned_policy.get();
    shard->context = std::make_unique<SimContext>(
        *shard->config, num_clients, shard->policy->ClientCacheBlocks(*shard->config),
        shard->policy->ServerCacheBlocks(*shard->config));
    shard->policy->Attach(*shard->context);
    shards_.push_back(std::move(shard));
  }
}

EngineOutcome CacheEngine::LookupLocked(Shard& shard, ClientId client, BlockId block) {
  SimContext& ctx = *shard.context;
  ctx.directory().NoteBlock(block);
  TraceRecorder* tracer = ctx.tracer();
  if (tracer != nullptr) {
    tracer->BeginRead(client, block, ctx.accounting());
  }
  EngineOutcome outcome;
  outcome.read = shard.policy->Read(client, block);
  outcome.latency_us = OutcomeLatency(outcome.read, *shard.config);
  if (tracer != nullptr) {
    tracer->EndRead(outcome.read.level, outcome.read.hops, outcome.read.data_transfer,
                    outcome.latency_us);
  }
  return outcome;
}

EngineOutcome CacheEngine::Lookup(ClientId client, BlockId block) {
  Shard& shard = ShardForBlock(block);
  const std::unique_lock<std::mutex> guard = Guard(shard);
  return LookupLocked(shard, client, block);
}

EngineOutcome CacheEngine::Lookup(ClientId client, BlockId block, Micros now) {
  Shard& shard = ShardForBlock(block);
  const std::unique_lock<std::mutex> guard = Guard(shard);
  if (now > shard.context->now()) {
    shard.context->set_now(now);
  }
  return LookupLocked(shard, client, block);
}

Micros CacheEngine::AdmitLocked(Shard& shard, ClientId client, BlockId block) {
  shard.context->directory().NoteBlock(block);
  shard.policy->Write(client, block);
  return WriteLatency(*shard.config);
}

Micros CacheEngine::Admit(ClientId client, BlockId block) {
  Shard& shard = ShardForBlock(block);
  const std::unique_lock<std::mutex> guard = Guard(shard);
  return AdmitLocked(shard, client, block);
}

Micros CacheEngine::Admit(ClientId client, BlockId block, Micros now) {
  Shard& shard = ShardForBlock(block);
  const std::unique_lock<std::mutex> guard = Guard(shard);
  if (now > shard.context->now()) {
    shard.context->set_now(now);
  }
  return AdmitLocked(shard, client, block);
}

void CacheEngine::Evict(ClientId client, FileId file) {
  Shard& shard = *shards_[ShardForFile(file)];
  const std::unique_lock<std::mutex> guard = Guard(shard);
  shard.policy->Delete(client, file);
}

void CacheEngine::ReadAttr(ClientId client, FileId file) {
  Shard& shard = *shards_[ShardForFile(file)];
  const std::unique_lock<std::mutex> guard = Guard(shard);
  shard.policy->ReadAttr(client, file);
}

void CacheEngine::Reboot(ClientId client) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::unique_lock<std::mutex> guard = Guard(*shard);
    shard->policy->Reboot(client);
  }
}

void CacheEngine::Tick() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::unique_lock<std::mutex> guard = Guard(*shard);
    shard->policy->Tick();
  }
}

void CacheEngine::SetAccounting(bool on) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::unique_lock<std::mutex> guard = Guard(*shard);
    shard->context->set_accounting(on);
  }
}

}  // namespace coopfs
