#include "src/core/hash_distributed.h"

#include <optional>

#include <algorithm>

#include "src/common/format.h"

namespace coopfs {

std::string HashDistributedPolicy::Name() const {
  return "Hash Distributed (" + FormatPercent(coordinated_fraction_, 0) + ")";
}

std::size_t HashDistributedPolicy::ClientCacheBlocks(const SimulationConfig& config) const {
  const auto coordinated = static_cast<std::size_t>(
      coordinated_fraction_ * static_cast<double>(config.client_cache_blocks) + 0.5);
  return config.client_cache_blocks - std::min(coordinated, config.client_cache_blocks);
}

void HashDistributedPolicy::OnAttach() {
  const auto per_client = static_cast<std::size_t>(
      coordinated_fraction_ * static_cast<double>(ctx().config().client_cache_blocks) + 0.5);
  partitions_.clear();
  partitions_.reserve(ctx().num_clients());
  for (std::uint32_t c = 0; c < ctx().num_clients(); ++c) {
    partitions_.push_back(std::make_unique<LruMap<std::uint64_t, bool>>(per_client));
  }
}

ClientId HashDistributedPolicy::HashTarget(BlockId block) const {
  return static_cast<ClientId>(std::hash<BlockId>{}(block) % partitions_.size());
}

ReadOutcome HashDistributedPolicy::Read(ClientId client, BlockId block) {
  if (std::optional<ReadOutcome> hit = ReadLocal(client, block)) {
    return *hit;
  }

  // The distributed cache is probed first, directly at the responsible
  // client — the server is not involved at all on a hit.
  const ClientId target = HashTarget(block);
  const bool self_target = target == client;
  if (partitions_[target]->Touch(block.Pack()) != nullptr) {
    CacheLocally(client, block);
    if (self_target) {
      // The coordinated copy is in this client's own memory: no network.
      return {CacheLevel::kLocalMemory, 0, false};
    }
    ctx().TraceForward(target);
    return {CacheLevel::kRemoteClient, 2, true};
  }

  // Partition miss: the hashed client forwards the request to the server
  // (one extra hop unless the requester was the hashed client itself).
  const int hops = self_target ? 2 : 3;
  if (std::optional<ReadOutcome> hit = ReadServerMemory(client, block, hops)) {
    return *hit;
  }
  return ReadDisk(client, block, hops);
}

void HashDistributedPolicy::OnServerEvict(BlockId block) {
  LruMap<std::uint64_t, bool>& partition = *partitions_[HashTarget(block)];
  if (partition.CanInsert()) {
    partition.Insert(block.Pack(), true);
  }
}

void HashDistributedPolicy::OnInvalidateExtra(BlockId block, ClientId writer) {
  (void)writer;
  partitions_[HashTarget(block)]->Erase(block.Pack());
}

void HashDistributedPolicy::OnClientReboot(ClientId client) {
  partitions_[client]->Clear();
}

}  // namespace coopfs
