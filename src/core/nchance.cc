#include "src/core/nchance.h"

#include <cassert>

namespace coopfs {

void NChancePolicy::OnAttach() {
  assert(n_ >= 0 && n_ <= UINT8_MAX && "recirculation counts are stored in a byte");
  if (n_ > 0) {
    ctx().TrackClientVictimClasses(static_cast<std::uint8_t>(n_));
  }
}

void NChancePolicy::OnLocalHit(ClientId client, CacheEntry& entry) {
  // Referencing a singlet "resets the block's recirculation count and caches
  // the data normally" (§2.4): the copy becomes ordinary local data.
  entry.recirculation_count = 0;
  ctx().client_cache(client).Reclassify(entry);
}

void NChancePolicy::OnRemoteHit(ClientId client, ClientId holder, BlockId block) {
  (void)client;
  CacheEntry* entry = ctx().client_cache(holder).Find(block);
  assert(entry != nullptr && "directory pointed at a non-holder");
  if (entry == nullptr) {
    return;
  }
  if (entry->recirculating()) {
    // The requester takes over the singlet; the cooperative copy dies.
    FlushIfDirty(holder, block);
    DropLocal(holder, block);
    return;
  }
  // The block is about to be duplicated at the requester; stale singlet
  // flags would cause pointless recirculation later.
  entry->singlet_flag = false;
  ctx().client_cache(holder).Reclassify(*entry);
}

void NChancePolicy::OnBlockReplicated(BlockId block) {
  // A server-supplied copy is appearing at a new client; clear any holder's
  // now-stale singlet state (the paper's flag reset on re-reference, §2.4).
  // A recirculating copy is demoted to normal data: the block is no longer
  // the last cached copy, so protecting it would be pointless.
  for (ClientId holder : ctx().directory().Holders(block)) {
    BlockCache& cache = ctx().client_cache(holder);
    if (CacheEntry* entry = cache.Find(block); entry != nullptr) {
      entry->singlet_flag = false;
      entry->recirculation_count = 0;
      cache.Reclassify(*entry);
    }
  }
}

void NChancePolicy::DisposeVictim(ClientId client, CacheEntry& victim) {
  const BlockId block = victim.block;
  if (n_ == 0) {
    // Degenerate case: exactly Greedy Forwarding, no queries, no forwarding.
    DropLocal(client, block);
    return;
  }

  bool is_singlet;
  int count;
  if (victim.recirculating()) {
    // "Any block whose recirculation count is set must be a singlet, so no
    // server message is necessary" — and reaching the LRU end decrements.
    is_singlet = true;
    count = victim.recirculation_count - 1;
  } else if (victim.singlet_flag) {
    // Previously discovered singlet held as local data: no repeat query.
    is_singlet = true;
    count = n_;
  } else {
    // One is-this-the-last-copy query per block lifetime (request + reply).
    ctx().ChargeSmallMessages(2);
    is_singlet = ctx().directory().IsSingletHeldBy(block, client);
    count = n_;
  }

  if (!is_singlet || count <= 0) {
    DropLocal(client, block);
    return;
  }

  const ClientId peer = PickForwardTarget(client);
  if (peer == kNoClient) {
    DropLocal(client, block);
    return;
  }
  // The "block has moved" directory update piggybacks on the miss request
  // that triggered this eviction (§2.4 first optimization): uncharged.
  ctx().CountRecirculation();
  ctx().TraceRecirculation(client, peer, block, count);
  DropLocal(client, block);
  ReceiveForwarded(peer, block, count);
}

void NChancePolicy::ReceiveForwarded(ClientId peer, BlockId block, int count) {
  assert(count > 0);
  BlockCache& cache = ctx().client_cache(peer);
  if (!cache.CanInsert()) {
    return;
  }
  if (CacheEntry* existing = cache.Find(block); existing != nullptr) {
    // Should not happen for a true singlet; tolerate stale flags by merging.
    existing->recirculation_count =
        static_cast<std::uint8_t>(std::max<int>(existing->recirculation_count, count));
    cache.Reclassify(*existing);
    return;
  }
  // The "block has moved" update reaches the directory with the forward
  // itself; register the new holder before displacement queries run.
  ctx().directory().AddHolder(block, peer);
  while (cache.Full()) {
    MakeSpaceWithoutForwarding(peer);
  }
  CacheEntry& entry = cache.Insert(block);
  // "The peer adds the block to its LRU list as if recently referenced."
  entry.recirculation_count = static_cast<std::uint8_t>(count);
  entry.singlet_flag = true;  // Known singlet: never re-queried.
  entry.last_ref = ctx().now();
  cache.Reclassify(entry);
}

void NChancePolicy::MakeSpaceWithoutForwarding(ClientId peer) {
  BlockCache& cache = ctx().client_cache(peer);

  // First choice: the oldest duplicated block. Recirculating copies and
  // flag-marked singlets are known singlets and sit outside the unqueried
  // class; every unqueried block costs one query, and a discovered singlet
  // gets its flag set, leaving the class for good (§2.4 optimizations).
  CacheEntry* victim = cache.OldestInClass(BlockCache::kUnqueried);
  while (victim != nullptr) {
    ctx().ChargeSmallMessages(2);
    if (ctx().directory().IsDuplicated(victim->block)) {
      break;
    }
    victim->singlet_flag = true;
    cache.Reclassify(*victim);
    victim = cache.OldestInClass(BlockCache::kUnqueried);
  }

  // Second choice: the oldest recirculating block with the fewest
  // recirculations remaining.
  for (int count = 1; victim == nullptr && count <= n_; ++count) {
    victim = cache.OldestInClass(static_cast<std::size_t>(count));
  }

  // Fallback (cache entirely flag-marked singlets): plain LRU.
  if (victim == nullptr) {
    victim = cache.Lru();
  }
  if (victim != nullptr) {
    FlushIfDirty(peer, victim->block);
    DropLocal(peer, victim->block);
  }
}

ClientId NChancePolicy::PickForwardTarget(ClientId client) {
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

}  // namespace coopfs
