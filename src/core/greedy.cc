#include "src/core/greedy.h"

#include <optional>

namespace coopfs {

ReadOutcome GreedyPolicy::Read(ClientId client, BlockId block) {
  if (std::optional<ReadOutcome> hit = ReadLocal(client, block)) {
    return *hit;
  }
  if (std::optional<ReadOutcome> hit = ReadServerMemory(client, block)) {
    return *hit;
  }

  // The server consults its directory and forwards the request to a caching
  // client, which sends the data directly to the requester: request +
  // forward + reply = 3 hops (Figure 3).
  const ClientId holder = ctx().directory().PickHolder(block, client, ctx().rng());
  if (holder != kNoClient) {
    ctx().ChargeRemoteClientHit(holder);
    OnRemoteHit(client, holder, block);
    CacheLocally(client, block);
    return {CacheLevel::kRemoteClient, 3, true};
  }
  // No other client holds the block, so ReadDisk finds no dirty copy.
  return ReadDisk(client, block);
}

}  // namespace coopfs
