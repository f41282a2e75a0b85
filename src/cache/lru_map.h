// Generic fixed-capacity LRU map.
//
// Used for the server-managed global cache index of the Centrally
// Coordinated, Hash-Distributed, and best-case policies: an LRU-ordered map
// from block to the client hosting the globally managed copy (the doubly
// linked LRU list of the paper's 24-byte directory entries, §2.2).
//
// Storage layout (replay hot path): entries live in chunked slabs that are
// never reallocated, so the intrusive LRU list nodes stay put while the
// FlatHashMap index (key -> slab slot, reserved to capacity+1 so the
// transient over-capacity state in Insert never rehashes) provides O(1)
// allocation-free probes. Chunks are allocated lazily as the map grows and
// recycled through a free list on eviction/erase.
#ifndef COOPFS_SRC_CACHE_LRU_MAP_H_
#define COOPFS_SRC_CACHE_LRU_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/common/intrusive_list.h"

namespace coopfs {

template <typename K, typename V, typename Hash = FlatHash<K>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    index_.Reserve(capacity_ + 1);
  }

  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool Full() const { return size() >= capacity_; }
  bool CanInsert() const { return capacity_ > 0; }
  bool Contains(const K& key) const { return index_.Contains(key); }

  // Lookup without renewing. Returns nullptr if absent. Value pointers stay
  // valid until that key is erased or evicted (slab storage).
  V* Find(const K& key) {
    const std::uint32_t* slot = index_.Find(key);
    return slot == nullptr ? nullptr : &SlabAt(*slot).value;
  }

  // Lookup and renew (move to MRU). Returns nullptr if absent.
  V* Touch(const K& key) {
    const std::uint32_t* slot = index_.Find(key);
    if (slot == nullptr) {
      return nullptr;
    }
    Entry& entry = SlabAt(*slot);
    lru_.MoveToFront(&entry);
    return &entry.value;
  }

  // Inserts (key -> value) at MRU. If the key exists its value is replaced
  // and the entry renewed. If the map is over capacity afterwards, the LRU
  // entry is evicted and returned.
  std::optional<std::pair<K, V>> Insert(const K& key, V value) {
    assert(CanInsert());
    auto [slot, inserted] = index_.TryEmplace(key);
    if (!inserted) {
      Entry& entry = SlabAt(*slot);
      entry.value = std::move(value);
      lru_.MoveToFront(&entry);
      return std::nullopt;
    }
    const std::uint32_t fresh = AllocSlot();
    *slot = fresh;
    Entry& entry = SlabAt(fresh);
    entry.key = key;
    entry.value = std::move(value);
    entry.slot = fresh;
    lru_.PushFront(&entry);
    if (size() <= capacity_) {
      return std::nullopt;
    }
    Entry* victim = lru_.Back();
    std::pair<K, V> evicted{victim->key, std::move(victim->value)};
    lru_.Remove(victim);
    free_slots_.push_back(victim->slot);
    index_.Erase(evicted.first);
    return evicted;
  }

  bool Erase(const K& key) {
    const std::uint32_t* slot = index_.Find(key);
    if (slot == nullptr) {
      return false;
    }
    Entry& entry = SlabAt(*slot);
    lru_.Remove(&entry);
    free_slots_.push_back(*slot);
    index_.Erase(key);
    return true;
  }

  // Removes every entry for which `pred(key, value)` returns true; returns
  // the number removed. Visits the whole index, so it suits only rare
  // whole-host invalidations: its one caller is a client reboot dropping
  // that client's share of the central coordinator's global cache
  // (src/core/central_coord.cc). Where the keys are known, Erase each.
  template <typename Pred>
  std::size_t EraseIf(Pred&& pred) {
    return index_.EraseIf([this, &pred](const K& key, std::uint32_t& slot) {
      Entry& entry = SlabAt(slot);
      if (!pred(key, entry.value)) {
        return false;
      }
      lru_.Remove(&entry);
      free_slots_.push_back(slot);
      return true;
    });
  }

  // Key/value of the LRU entry, or nullopt when empty.
  std::optional<std::pair<K, V>> LruEntry() const {
    const Entry* back = lru_.Back();
    if (back == nullptr) {
      return std::nullopt;
    }
    return std::pair<K, V>{back->key, back->value};
  }

  void Clear() {
    lru_.Clear();
    index_.Clear();
    index_.Reserve(capacity_ + 1);
    free_slots_.clear();
    const std::size_t total = chunks_.size() * kChunkSize;
    for (std::size_t i = total; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  // Key-index occupancy and probe-length statistics (observability).
  FlatMapStats IndexStats() const { return index_.Stats(); }

 private:
  struct Entry {
    K key{};
    V value{};
    IntrusiveListNode node;
    std::uint32_t slot = 0;
  };

  static constexpr std::size_t kChunkSize = 256;

  Entry& SlabAt(std::uint32_t slot) { return chunks_[slot / kChunkSize][slot % kChunkSize]; }
  const Entry& SlabAt(std::uint32_t slot) const {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }

  std::uint32_t AllocSlot() {
    if (free_slots_.empty()) {
      const std::size_t base = chunks_.size() * kChunkSize;
      chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
      free_slots_.reserve(base + kChunkSize);
      for (std::size_t i = kChunkSize; i > 0; --i) {
        free_slots_.push_back(static_cast<std::uint32_t>(base + i - 1));
      }
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  std::size_t capacity_;
  FlatHashMap<K, std::uint32_t, Hash> index_;        // key -> slab slot
  std::vector<std::unique_ptr<Entry[]>> chunks_;     // Stable entry storage.
  std::vector<std::uint32_t> free_slots_;            // Recycled slots (LIFO).
  IntrusiveList<Entry, &Entry::node> lru_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CACHE_LRU_MAP_H_
