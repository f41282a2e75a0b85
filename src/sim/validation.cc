#include "src/sim/validation.h"

#include <string>
#include <vector>

namespace coopfs {
namespace {

// A tracking cache's victim-class sublists hold exactly the entries whose
// fields call for them, each once, oldest stamp first.
Status CheckVictimClasses(const BlockCache& cache, ClientId c) {
  if (!cache.tracks_victim_classes()) {
    return Status::Ok();
  }
  const std::string where = "client " + std::to_string(c) + " victim class ";
  std::vector<std::size_t> members(cache.victim_class_count(), 0);
  Status status = Status::Ok();
  cache.ForEachEntry([&](const CacheEntry& entry) {
    if (!status.ok()) {
      return;
    }
    const std::uint16_t victim_class = BlockCache::ClassOf(entry);
    if (victim_class != CacheEntry::kNoClass && victim_class >= members.size()) {
      status = Status::Internal(where + std::to_string(victim_class) + " of " +
                                entry.block.ToString() + " is beyond the tracked range");
    } else if (entry.victim_class != victim_class) {
      status = Status::Internal(where + "of " + entry.block.ToString() + ": sits on " +
                                std::to_string(entry.victim_class) + ", its fields call for " +
                                std::to_string(victim_class));
    } else if (victim_class != CacheEntry::kNoClass) {
      ++members[victim_class];
    }
  });
  if (!status.ok()) {
    return status;
  }
  for (std::size_t victim_class = 0; victim_class < members.size(); ++victim_class) {
    std::size_t linked = 0;
    const CacheEntry* older = nullptr;
    for (const CacheEntry* entry = cache.OldestInClass(victim_class);
         entry != nullptr && linked <= members[victim_class];
         older = entry, entry = cache.NewerInClass(*entry)) {
      ++linked;
      if (entry->victim_class != victim_class) {
        return Status::Internal(where + std::to_string(victim_class) + " links " +
                                entry->block.ToString() + " of class " +
                                std::to_string(entry->victim_class));
      }
      if (older != nullptr && older->lru_stamp >= entry->lru_stamp) {
        return Status::Internal(where + std::to_string(victim_class) + " is out of stamp order at " +
                                entry->block.ToString());
      }
    }
    if (linked != members[victim_class]) {
      return Status::Internal(where + std::to_string(victim_class) + " links " +
                              std::to_string(linked) + " entries but " +
                              std::to_string(members[victim_class]) + " belong to it");
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckCacheDirectoryConsistency(SimContext& context) {
  // Caches -> directory, capacity, and N-Chance metadata. A client that
  // never issued an access has no cache yet, and checking never builds one.
  for (std::uint32_t c = 0; c < context.num_clients(); ++c) {
    const BlockCache* materialized = context.client_cache_if_materialized(c);
    if (materialized == nullptr) {
      continue;
    }
    const BlockCache& cache = *materialized;
    if (cache.size() > cache.capacity()) {
      return Status::Internal("client " + std::to_string(c) + " over capacity: " +
                              std::to_string(cache.size()) + " > " +
                              std::to_string(cache.capacity()));
    }
    Status status = Status::Ok();
    cache.ForEachEntry([&](const CacheEntry& entry) {
      if (!status.ok()) {
        return;
      }
      const auto& holders = context.directory().Holders(entry.block);
      bool found = false;
      for (ClientId holder : holders) {
        found = found || holder == c;
      }
      if (!found) {
        status = Status::Internal("client " + std::to_string(c) + " caches " +
                                  entry.block.ToString() + " but is not a directory holder");
        return;
      }
      if ((entry.recirculating() || entry.singlet_flag) && holders.size() != 1) {
        status = Status::Internal("client " + std::to_string(c) + " holds " +
                                  entry.block.ToString() +
                                  " marked singlet but it has " +
                                  std::to_string(holders.size()) + " holders");
      }
    });
    if (!status.ok()) {
      return status;
    }
    if (status = CheckVictimClasses(cache, c); !status.ok()) {
      return status;
    }
  }

  // Directory -> caches.
  Status status = Status::Ok();
  context.directory().ForEachBlock([&](BlockId block, const Directory::HolderList& holders) {
    if (!status.ok()) {
      return;
    }
    for (ClientId holder : holders) {
      if (holder >= context.num_clients()) {
        status = Status::Internal("directory holder out of range for " + block.ToString());
        return;
      }
      const BlockCache* cache = context.client_cache_if_materialized(holder);
      if (cache == nullptr || !cache->Contains(block)) {
        status = Status::Internal("directory says client " + std::to_string(holder) +
                                  " caches " + block.ToString() + " but it does not");
        return;
      }
    }
  });
  if (!status.ok()) {
    return status;
  }

  for (std::uint32_t server = 0; server < context.num_servers(); ++server) {
    if (context.server_cache(server).size() > context.server_cache(server).capacity()) {
      return Status::Internal("server " + std::to_string(server) + " cache over capacity");
    }
  }
  return Status::Ok();
}

}  // namespace coopfs
