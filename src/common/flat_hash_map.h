// Open-addressing flat hash containers for the replay hot path.
//
// The simulator's inner loop is index maintenance: every replayed event
// walks the per-client BlockCache index, the server Directory, and (for the
// coordinated policies) an LruMap — all previously std::unordered_map, whose
// node-per-entry layout costs one heap allocation per insert and one or more
// dependent cache-line loads per probe. FlatHashMap stores slots in one
// contiguous power-of-two array and resolves collisions with robin-hood
// linear probing, so a lookup is a handful of sequential cache lines and an
// insert after reserve() never allocates.
//
// Design:
//   * one metadata byte per slot: 0 = empty, d > 0 = "probe distance d-1
//     from the home bucket". No tombstones — erase backward-shifts the
//     following cluster, so probe sequences never degrade over time.
//   * robin-hood insertion (steal the slot of a richer element) keeps the
//     maximum probe length small and variance low even near the max load
//     factor (7/8).
//   * integral keys are mixed with the SplitMix64 finalizer by default;
//     sequential BlockId/FileId/ClientId keys otherwise cluster badly in a
//     power-of-two table. Non-integral keys go through std::hash + mix.
//   * rehash is profiled under the "flat_map/rehash" span, so an
//     under-reserved hot map shows up directly in coopfs.profile/v1 output
//     (see docs/performance.md).
//
// Constraints (deliberate, for the keys/values this codebase uses): K and V
// must be default-constructible and movable; erased slots are reset by
// moving a default-constructed value in. Pointers/references into the map
// are invalidated by any insert, erase, or rehash — unlike
// std::unordered_map. Callers that need stable entries (BlockCache, LruMap)
// keep values in a separate stable slab and store slab indexes here.
//
// Iteration order is unspecified and changes with capacity. Anything that
// can leak into simulation results or exported documents must aggregate
// order-independently or sort before emitting; tests/sim/
// capacity_determinism_test.cc holds that line.
#ifndef COOPFS_SRC_COMMON_FLAT_HASH_MAP_H_
#define COOPFS_SRC_COMMON_FLAT_HASH_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/profiler.h"
#include "src/common/types.h"

namespace coopfs {

// Default hasher: integral keys are mixed directly (std::hash on libstdc++
// is the identity, which a power-of-two table cannot digest); anything else
// is hashed then mixed.
template <typename K>
struct FlatHash {
  std::uint64_t operator()(const K& key) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return MixHash64(static_cast<std::uint64_t>(key));
    } else {
      return MixHash64(static_cast<std::uint64_t>(std::hash<K>{}(key)));
    }
  }
};

// Probe-length / occupancy statistics, cheap enough to sample on demand
// (O(buckets)); surfaced by the cache-layer IndexStats() accessors and the
// flat_map_* series in bench/perf_harness.
struct FlatMapStats {
  std::size_t size = 0;
  std::size_t buckets = 0;
  double load_factor = 0.0;
  std::size_t max_probe_length = 0;   // Worst slot displacement (0 = home).
  double avg_probe_length = 0.0;      // Mean displacement over live slots.
  std::uint64_t rehashes = 0;         // Grows since construction/Clear.
};

template <typename K, typename V, typename Hasher = FlatHash<K>>
class FlatHashMap {
  static_assert(std::is_default_constructible_v<K> && std::is_default_constructible_v<V>,
                "FlatHashMap slots are default-constructed");

 public:
  FlatHashMap() = default;

  // Draws the slot and metadata arrays from `arena` (null = global heap).
  // Rehash abandons the old arrays into the arena — size the map with
  // Reserve() up front, as the replay containers already do.
  explicit FlatHashMap(Arena* arena)
      : slots_(ArenaAllocator<Slot>(arena)), dist_(ArenaAllocator<std::uint8_t>(arena)) {}

  FlatHashMap(FlatHashMap&&) noexcept = default;
  FlatHashMap& operator=(FlatHashMap&&) noexcept = default;
  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucket_count() const { return dist_.size(); }
  double load_factor() const {
    return dist_.empty() ? 0.0 : static_cast<double>(size_) / static_cast<double>(dist_.size());
  }

  // Ensures `n` entries fit without further rehashing.
  void Reserve(std::size_t n) {
    const std::size_t needed = BucketsFor(n);
    if (needed > dist_.size()) {
      Rehash(needed);
    }
  }

  void Clear() {
    for (std::size_t i = 0; i < dist_.size(); ++i) {
      if (dist_[i] != 0) {
        slots_[i] = Slot{};
        dist_[i] = 0;
      }
    }
    size_ = 0;
    rehashes_ = 0;
  }

  bool Contains(const K& key) const { return FindIndex(key) != kNpos; }

  // Pointer to the mapped value, or nullptr. Invalidated by any mutation.
  V* Find(const K& key) {
    const std::size_t i = FindIndex(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const V* Find(const K& key) const {
    const std::size_t i = FindIndex(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }

  // Inserts a default-constructed value under `key` if absent. Returns the
  // value pointer and whether an insert happened (try_emplace semantics).
  std::pair<V*, bool> TryEmplace(const K& key) {
    GrowIfNeeded();
    const std::uint64_t hash = hasher_(key);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    std::uint8_t dist = 1;
    while (true) {
      if (dist_[i] == 0) {
        slots_[i].key = key;
        dist_[i] = dist;
        ++size_;
        return {&slots_[i].value, true};
      }
      if (dist_[i] >= dist && slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
      if (dist_[i] < dist) {
        // Robin hood: displace the richer resident, then keep inserting it.
        return {InsertDisplacing(key, i, dist), true};
      }
      i = (i + 1) & mask_;
      ++dist;
      if (dist == kMaxDistance) {  // Pathological clustering: grow and retry.
        Rehash(dist_.empty() ? kMinBuckets : dist_.size() * 2);
        return TryEmplace(key);
      }
    }
  }

  V& operator[](const K& key) { return *TryEmplace(key).first; }

  // Removes `key` if present (backward-shift, no tombstone). Returns whether
  // it was present.
  bool Erase(const K& key) {
    const std::size_t i = FindIndex(key);
    if (i == kNpos) {
      return false;
    }
    EraseAt(i);
    return true;
  }

  // Removes every entry for which pred(key, value) is true; returns the
  // number removed. Handles the backward-shift-into-current-slot case.
  template <typename Pred>
  std::size_t EraseIf(Pred&& pred) {
    std::size_t removed = 0;
    for (std::size_t i = 0; i < dist_.size();) {
      if (dist_[i] != 0 && pred(std::as_const(slots_[i].key), slots_[i].value)) {
        EraseAt(i);
        ++removed;
        // EraseAt may have shifted the next cluster element into slot i;
        // re-examine i. A shifted-in element always has dist >= 1 at its
        // new, closer position, so progress is guaranteed: each re-check
        // either erases (size shrinks) or advances.
        continue;
      }
      ++i;
    }
    return removed;
  }

  // Visits every (key, value) in unspecified order. The visitor must not
  // mutate the map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < dist_.size(); ++i) {
      if (dist_[i] != 0) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

  FlatMapStats Stats() const {
    FlatMapStats stats;
    stats.size = size_;
    stats.buckets = dist_.size();
    stats.load_factor = load_factor();
    stats.rehashes = rehashes_;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < dist_.size(); ++i) {
      if (dist_[i] != 0) {
        const std::size_t probe = dist_[i] - 1;
        total += probe;
        stats.max_probe_length = std::max(stats.max_probe_length, probe);
      }
    }
    stats.avg_probe_length = size_ == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(size_);
    return stats;
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinBuckets = 8;
  static constexpr std::uint8_t kMaxDistance = 255;

  // Smallest power-of-two bucket count that keeps `n` entries at or under
  // the 7/8 max load factor.
  static std::size_t BucketsFor(std::size_t n) {
    std::size_t buckets = kMinBuckets;
    while (buckets * 7 / 8 < n) {
      buckets *= 2;
    }
    return buckets;
  }

  std::size_t FindIndex(const K& key) const {
    if (dist_.empty()) {
      return kNpos;
    }
    const std::uint64_t hash = hasher_(key);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    std::uint8_t dist = 1;
    // A resident with a smaller distance than our probe would have robbed us
    // at insertion time: the key cannot be further along.
    while (dist_[i] >= dist) {
      if (slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask_;
      ++dist;
    }
    return kNpos;
  }

  void GrowIfNeeded() {
    if (size_ + 1 > dist_.size() * 7 / 8) {
      Rehash(dist_.empty() ? kMinBuckets : dist_.size() * 2);
    }
  }

  // Robin-hood displacement chain: park (key, default V) at slot `i`
  // (whose resident is richer), then reinsert the evicted resident further
  // along, repeating as needed. Returns the value slot for `key`.
  V* InsertDisplacing(const K& key, std::size_t i, std::uint8_t dist) {
    Slot carried;
    carried.key = key;
    std::swap(carried, slots_[i]);
    std::swap(dist, dist_[i]);
    V* result = &slots_[i].value;
    std::size_t j = (i + 1) & mask_;
    ++dist;
    while (true) {
      if (dist_[j] == 0) {
        slots_[j] = std::move(carried);
        dist_[j] = dist;
        ++size_;
        return result;
      }
      if (dist_[j] < dist) {
        std::swap(carried, slots_[j]);
        std::swap(dist, dist_[j]);
      }
      j = (j + 1) & mask_;
      ++dist;
      if (dist == kMaxDistance) {
        // Grow, reinsert the carried slot, and relocate `result`'s key
        // (`slots_[i]` still holds the new key; rehash moves it).
        const K anchor = slots_[i].key;
        Rehash(dist_.size() * 2, &carried);
        return &slots_[FindIndex(anchor)].value;
      }
    }
  }

  void EraseAt(std::size_t i) {
    std::size_t next = (i + 1) & mask_;
    // Backward shift: pull each following cluster element (dist > 1) one
    // slot closer to home until a hole or a home-positioned element.
    while (dist_[next] > 1) {
      slots_[i] = std::move(slots_[next]);
      dist_[i] = dist_[next] - 1;
      i = next;
      next = (next + 1) & mask_;
    }
    slots_[i] = Slot{};
    dist_[i] = 0;
    --size_;
  }

  void Rehash(std::size_t new_buckets, Slot* carried = nullptr) {
    COOPFS_PROFILE_SCOPE("flat_map/rehash");
    SlotVec old_slots = std::move(slots_);
    DistVec old_dist = std::move(dist_);
    slots_.assign(new_buckets, Slot{});
    dist_.assign(new_buckets, 0);
    mask_ = new_buckets - 1;
    size_ = 0;
    ++rehashes_;
    for (std::size_t i = 0; i < old_dist.size(); ++i) {
      if (old_dist[i] != 0) {
        ReinsertUnchecked(std::move(old_slots[i]));
      }
    }
    if (carried != nullptr) {
      ReinsertUnchecked(std::move(*carried));
    }
  }

  // Insert of a known-absent slot during rehash (no equality checks).
  void ReinsertUnchecked(Slot&& slot) {
    Slot carried = std::move(slot);
    const std::uint64_t hash = hasher_(carried.key);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    std::uint8_t dist = 1;
    while (true) {
      if (dist_[i] == 0) {
        slots_[i] = std::move(carried);
        dist_[i] = dist;
        ++size_;
        return;
      }
      if (dist_[i] < dist) {
        std::swap(carried, slots_[i]);
        std::swap(dist, dist_[i]);
      }
      i = (i + 1) & mask_;
      ++dist;
      assert(dist < kMaxDistance && "rehash exceeded max probe distance");
    }
  }

  using SlotVec = std::vector<Slot, ArenaAllocator<Slot>>;
  using DistVec = std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>>;

  SlotVec slots_;
  DistVec dist_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint64_t rehashes_ = 0;
  [[no_unique_address]] Hasher hasher_{};
};

// Flat hash set: FlatHashMap with an empty mapped type.
template <typename K, typename Hasher = FlatHash<K>>
class FlatHashSet {
 public:
  FlatHashSet() = default;
  explicit FlatHashSet(Arena* arena) : map_(arena) {}

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Reserve(std::size_t n) { map_.Reserve(n); }
  void Clear() { map_.Clear(); }
  bool Contains(const K& key) const { return map_.Contains(key); }

  // Returns true if `key` was inserted (false: already present).
  bool Insert(const K& key) { return map_.TryEmplace(key).second; }
  bool Erase(const K& key) { return map_.Erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](const K& key, const Empty&) { fn(key); });
  }

  FlatMapStats Stats() const { return map_.Stats(); }

 private:
  struct Empty {};
  FlatHashMap<K, Empty, Hasher> map_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_FLAT_HASH_MAP_H_
