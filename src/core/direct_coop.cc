#include "src/core/direct_coop.h"

#include <optional>

namespace coopfs {

void DirectCoopPolicy::OnAttach() {
  const std::size_t uniform_capacity = remote_cache_blocks_ != 0
                                           ? remote_cache_blocks_
                                           : ctx().config().client_cache_blocks;
  remote_caches_.clear();
  remote_caches_.reserve(ctx().num_clients());
  for (std::uint32_t c = 0; c < ctx().num_clients(); ++c) {
    const std::size_t capacity = per_client_remote_blocks_.empty()
                                     ? uniform_capacity
                                     : (c < per_client_remote_blocks_.size()
                                            ? per_client_remote_blocks_[c]
                                            : 0);
    remote_caches_.push_back(std::make_unique<BlockCache>(capacity));
  }
}

ReadOutcome DirectCoopPolicy::Read(ClientId client, BlockId block) {
  if (std::optional<ReadOutcome> hit = ReadLocal(client, block)) {
    return *hit;
  }

  // Probe the private remote cache: request + reply, no server (Figure 3:
  // 1050 us on ATM). The block migrates back into the local cache.
  if (remote_caches_[client]->Erase(block)) {
    // The "remote client" here is this client's own private remote cache.
    ctx().TraceForward(client);
    CacheLocally(client, block);
    return {CacheLevel::kRemoteClient, 2, true};
  }

  // As far as the server is concerned this client just has a larger cache:
  // the remaining path is exactly the baseline's.
  if (std::optional<ReadOutcome> hit = ReadServerMemory(client, block)) {
    return *hit;
  }
  return ReadDisk(client, block);
}

void DirectCoopPolicy::DisposeVictim(ClientId client, CacheEntry& victim) {
  const BlockId block = victim.block;
  DropLocal(client, block);

  BlockCache& remote = *remote_caches_[client];
  if (!remote.CanInsert() || remote.Contains(block)) {
    return;
  }
  while (remote.Full()) {
    remote.EvictLru();
  }
  remote.Insert(block).last_ref = ctx().now();
}

void DirectCoopPolicy::OnClientReboot(ClientId client) {
  remote_caches_[client]->Clear();
}

void DirectCoopPolicy::OnInvalidateExtra(BlockId block, ClientId /*writer*/) {
  // Every private copy goes stale, the writer's own spilled copy included:
  // the fresh data re-enters its local cache through the normal write path.
  for (const auto& remote : remote_caches_) {
    remote->Erase(block);
  }
}

}  // namespace coopfs
