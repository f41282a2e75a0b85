#include "src/sim/policy.h"

#include <vector>

#include "src/common/profiler.h"

namespace coopfs {

void PolicyBase::CacheLocally(ClientId client, BlockId block) {
  BlockCache& cache = ctx().client_cache(client);
  if (!cache.CanInsert()) {
    return;
  }
  if (CacheEntry* existing = cache.Touch(block); existing != nullptr) {
    existing->last_ref = ctx().now();
    return;
  }
  // The miss request that fetched this block already updated the server's
  // directory (the paper's piggybacked update, §2.4), so the new holder is
  // registered *before* eviction runs: is-singlet queries issued while
  // making space must see the incoming copy.
  ctx().directory().AddHolder(block, client);
  if (cache.Full()) {
    COOPFS_PROFILE_SCOPE("policy/evict");
    while (cache.Full()) {
      EvictForInsert(client);
    }
  }
  cache.Insert(block).last_ref = ctx().now();
}

void PolicyBase::EvictForInsert(ClientId client) {
  CacheEntry* victim = SelectVictim(client);
  if (victim == nullptr) {
    return;
  }
  FlushIfDirty(client, victim->block);
  DisposeVictim(client, *victim);
}

CacheEntry* PolicyBase::SelectVictim(ClientId client) {
  return ctx().client_cache(client).Lru();
}

void PolicyBase::DisposeVictim(ClientId client, CacheEntry& victim) {
  DropLocal(client, victim.block);
}

void PolicyBase::FlushIfDirty(ClientId client, BlockId block) {
  CacheEntry* entry = ctx().client_cache(client).Find(block);
  if (entry == nullptr || !entry->dirty) {
    return;
  }
  entry->dirty = false;
  ctx().CountFlush();
  InstallInServerCache(block);
}

void PolicyBase::Tick() {
  if (flush_queue_.empty()) {
    return;
  }
  const Micros now = ctx().now();
  while (!flush_queue_.empty() && flush_queue_.front().due <= now) {
    const PendingFlush pending = flush_queue_.front();
    flush_queue_.pop_front();
    // The entry may be gone, clean, or re-dirtied by a newer write (whose
    // own flush is queued behind this one); only flush if this write is
    // still the one pending.
    CacheEntry* entry = ctx().client_cache(pending.client).Find(pending.block);
    if (entry != nullptr && entry->dirty) {
      FlushIfDirty(pending.client, pending.block);
    }
  }
}

std::optional<ReadOutcome> PolicyBase::ReadServerMemory(ClientId client, BlockId block,
                                                        int hops) {
  CacheEntry* entry = ctx().server_cache_for(block).Touch(block);
  if (entry == nullptr) {
    return std::nullopt;
  }
  entry->last_ref = ctx().now();
  ctx().ChargeServerMemoryHit();
  OnBlockReplicated(block);
  CacheLocally(client, block);
  return ReadOutcome{CacheLevel::kServerMemory, hops, true};
}

ReadOutcome PolicyBase::ReadDisk(ClientId client, BlockId block, int hops) {
  if (delayed_writes()) {
    for (ClientId holder : ctx().directory().Holders(block)) {
      if (holder == client) {
        continue;
      }
      const CacheEntry* entry = ctx().client_cache(holder).Find(block);
      if (entry != nullptr && entry->dirty) {
        ctx().ChargeRemoteClientHit(holder);
        CacheLocally(client, block);
        return {CacheLevel::kRemoteClient, 3, true};
      }
    }
  }
  ctx().ChargeDiskHit();
  InstallInServerCache(block);
  CacheLocally(client, block);
  return {CacheLevel::kServerDisk, hops, true};
}

void PolicyBase::DropLocal(ClientId client, BlockId block) {
  ctx().client_cache(client).Erase(block);
  ctx().directory().RemoveHolder(block, client);
}

void PolicyBase::InstallInServerCache(BlockId block) {
  BlockCache& server = ctx().server_cache_for(block);
  if (!server.CanInsert()) {
    return;
  }
  if (CacheEntry* existing = server.Touch(block); existing != nullptr) {
    existing->last_ref = ctx().now();
    return;
  }
  while (server.Full()) {
    std::optional<CacheEntry> victim = server.EvictLru();
    if (!victim.has_value()) {
      break;
    }
    OnServerEvict(victim->block);
  }
  server.Insert(block).last_ref = ctx().now();
}

void PolicyBase::Write(ClientId client, BlockId block) {
  ctx().CountWrite();
  ctx().TraceWrite(client, block);

  // Write-invalidate: every other client copy dies; one small invalidation
  // message per copy is charged to the server ("Other" in Figure 6). A
  // dying dirty copy was superseded before it flushed: absorbed.
  const Directory::HolderList holders = ctx().directory().Holders(block);  // Copy: we mutate.
  for (ClientId holder : holders) {
    if (holder == client) {
      continue;
    }
    if (const CacheEntry* entry = ctx().client_cache(holder).Find(block);
        entry != nullptr && entry->dirty) {
      ctx().CountAbsorbedWrite();
    }
    DropLocal(holder, block);
    ctx().CountInvalidation();
    ctx().TraceInvalidation(block, holder, client);
    ctx().ChargeSmallMessages(1);
  }
  OnInvalidateExtra(block, client);

  if (!delayed_writes()) {
    // Write-through: the server receives and caches the new data. (Write
    // load itself is excluded from the Figure 6 comparison, as in the
    // paper.) The writer keeps a local copy, inserted normally.
    InstallInServerCache(block);
    CacheLocally(client, block);
    return;
  }

  // Delayed write: the data stays dirty in the writer's cache; the server's
  // and disk's copies are now stale, so the server cache entry must go.
  ctx().server_cache_for(block).Erase(block);
  CacheLocally(client, block);
  CacheEntry* entry = ctx().client_cache(client).Find(block);
  if (entry == nullptr) {
    // No local cache to hold dirty data (zero-capacity local section):
    // degenerate to write-through.
    InstallInServerCache(block);
    return;
  }
  if (entry->dirty) {
    // Overwrite of a still-dirty block: the earlier write is absorbed and
    // the already-queued flush will cover this one.
    ctx().CountAbsorbedWrite();
  } else {
    entry->dirty = true;
    flush_queue_.push_back({ctx().now() + ctx().config().write_delay, client, block});
  }
}

void PolicyBase::Delete(ClientId client, FileId file) {
  (void)client;
  // Purge every cached copy of every known block of the file. Unflushed
  // dirty blocks die with it: their writes are absorbed (never reach disk —
  // the short-lived-file effect delayed writes exploit).
  ctx().directory().EraseFile(file, [this](BlockId block, const Directory::HolderList& holders) {
    for (ClientId holder : holders) {
      BlockCache& cache = ctx().client_cache(holder);
      if (const CacheEntry* entry = cache.Find(block); entry != nullptr && entry->dirty) {
        ctx().CountAbsorbedWrite();
      }
      cache.Erase(block);
      ctx().CountInvalidation();
      ctx().TraceInvalidation(block, holder, kNoClient);
      ctx().ChargeSmallMessages(1);
    }
    ctx().server_cache_for(block).Erase(block);
    OnInvalidateExtra(block, kNoClient);
  });
}

void PolicyBase::Reboot(ClientId client) {
  BlockCache& cache = ctx().client_cache(client);
  // Collect first: DropLocal mutates the cache being iterated. Scanning the
  // LRU list (not the hash index) keeps the drop order — and with it the
  // directory's holder-list order, which PickHolder randomness observes —
  // independent of index capacity. Dirty blocks die with the machine's
  // memory — the delayed-write reliability cost.
  std::vector<BlockId> cached;
  cached.reserve(cache.size());
  cache.ScanFromLru([this, &cached](const CacheEntry& entry) {
    if (entry.dirty) {
      ctx().CountLostWrite();
    }
    cached.push_back(entry.block);
    return false;
  });
  for (const BlockId& block : cached) {
    DropLocal(client, block);
  }
  // The server learns of the reboot when the client re-registers: one
  // message, after which it can prune its directory ("Other" load).
  ctx().ChargeSmallMessages(1);
  OnClientReboot(client);
}

void PolicyBase::ReadAttr(ClientId client, FileId file) {
  BlockCache& cache = ctx().client_cache(client);
  for (const BlockId& block : ctx().directory().KnownBlocks(file)) {
    if (CacheEntry* entry = cache.Touch(block); entry != nullptr) {
      entry->last_ref = ctx().now();
    }
  }
}

}  // namespace coopfs
