#include "src/core/central_coord.h"

#include <optional>

#include <algorithm>
#include <cmath>

#include "src/common/format.h"

namespace coopfs {

namespace {

std::size_t CoordinatedBlocksPerClient(double fraction, std::size_t client_blocks) {
  const double exact = fraction * static_cast<double>(client_blocks);
  return static_cast<std::size_t>(exact + 0.5);
}

}  // namespace

std::string CentralCoordPolicy::Name() const {
  return "Central Coordination (" + FormatPercent(coordinated_fraction_, 0) + ")";
}

std::size_t CentralCoordPolicy::ClientCacheBlocks(const SimulationConfig& config) const {
  if (best_case_doubling_) {
    // Doubled memory: the locally managed half is a full-size private cache.
    return config.client_cache_blocks;
  }
  const std::size_t coordinated =
      CoordinatedBlocksPerClient(coordinated_fraction_, config.client_cache_blocks);
  return config.client_cache_blocks - std::min(coordinated, config.client_cache_blocks);
}

std::size_t CentralCoordPolicy::GlobalCacheBlocks(const SimulationConfig& config,
                                                  std::uint32_t num_clients) const {
  const std::size_t per_client =
      best_case_doubling_
          ? config.client_cache_blocks
          : CoordinatedBlocksPerClient(coordinated_fraction_, config.client_cache_blocks);
  return per_client * num_clients;
}

void CentralCoordPolicy::OnAttach() {
  global_cache_.emplace(GlobalCacheBlocks(ctx().config(), ctx().num_clients()));
  next_host_ = 0;
}

ClientId CentralCoordPolicy::NextHost() {
  const ClientId host = next_host_;
  next_host_ = (next_host_ + 1) % ctx().num_clients();
  return host;
}

ReadOutcome CentralCoordPolicy::Read(ClientId client, BlockId block) {
  if (std::optional<ReadOutcome> hit = ReadLocal(client, block)) {
    return *hit;
  }
  if (std::optional<ReadOutcome> hit = ReadServerMemory(client, block)) {
    return *hit;
  }

  // The server checks the centrally coordinated client memory; a hit renews
  // the entry on the global LRU list and forwards the request (3 hops).
  if (const ClientId* host = global_cache_->Touch(block.Pack()); host != nullptr) {
    ctx().ChargeRemoteClientHit(*host);
    CacheLocally(client, block);
    return {CacheLevel::kRemoteClient, 3, true};
  }

  return ReadDisk(client, block);
}

void CentralCoordPolicy::OnServerEvict(BlockId block) {
  if (!global_cache_->CanInsert()) {
    return;
  }
  // "The server sends the victim block to replace the least recently used
  // block among all of the blocks in the centrally coordinated distributed
  // cache" (§2.3). LruMap::Insert evicts its LRU entry automatically.
  global_cache_->Insert(block.Pack(), NextHost());
}

void CentralCoordPolicy::OnInvalidateExtra(BlockId block, ClientId writer) {
  (void)writer;
  global_cache_->Erase(block.Pack());
}

void CentralCoordPolicy::OnClientReboot(ClientId client) {
  global_cache_->EraseIf(
      [client](std::uint64_t, ClientId host) { return host == client; });
}

}  // namespace coopfs
