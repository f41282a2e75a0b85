// Fixed-capacity LRU block cache.
//
// One BlockCache models one machine's in-memory file cache: the local cache
// of every client, each client's private remote cache under Direct Client
// Cooperation, and the server's central cache. Entries carry the per-block
// metadata the N-Chance algorithm needs (recirculation count and the
// "known singlet" flag of paper §2.4) plus a last-reference timestamp for
// Weighted-LRU.
//
// Policies need fine-grained control of replacement (N-Chance's modified
// victim selection picks from the LRU end by class), so eviction is
// explicit: Insert requires free space and callers evict first, either
// EvictLru() or by choosing an entry themselves.
//
// Storage layout (replay hot path): entries live in a slab sized to the
// fixed capacity at construction, so CacheEntry pointers — and the intrusive
// LRU list nodes they embed — are stable for the cache's lifetime. A
// FlatHashMap from packed BlockId to slab slot, reserved up front, makes
// every Find/Touch/Insert/Erase allocation-free and rehash-free.
//
// Victim classes (N-Chance caches only): a tracking cache also threads its
// entries onto LRU-ordered sublists by the class N-Chance's ripple-free
// replacement (paper §2.4) picks from, so a peer admitting a recirculated
// block finds its victim without scanning the cache:
//   * class 0, "unqueried": neither recirculating nor flag-marked singlet;
//   * class c in 1..max_count: recirculating with c recirculations left.
// Flag-marked singlets that are not recirculating sit on no sublist. In a
// tracking cache every Insert and Touch renews the entry's LRU stamp, so the
// main list is in stamp order and each sublist is too. Insert, Touch and
// Erase keep the sublists current; after writing an entry's
// recirculation_count or singlet_flag in place, call Reclassify. Caches
// that do not track pay one predictable branch per Insert, Touch and Erase.
#ifndef COOPFS_SRC_CACHE_BLOCK_CACHE_H_
#define COOPFS_SRC_CACHE_BLOCK_CACHE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flat_hash_map.h"
#include "src/common/intrusive_list.h"
#include "src/common/types.h"

namespace coopfs {

// One cached copy: one 64-byte cache line of slab.
struct alignas(64) CacheEntry {
  // Ends a victim-class sublist; marks an entry on none.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::uint16_t kNoClass = UINT16_MAX;

  BlockId block;
  IntrusiveListNode lru_node;

  // Recency in a cache that tracks victim classes: larger is more recent.
  // Renewed by Insert and Touch there; 0 elsewhere.
  std::uint64_t lru_stamp = 0;

  // Simulated time of the last reference to this copy (Weighted-LRU ages).
  Micros last_ref = 0;

  // Victim-class sublist links (slab slots), toward the old and new ends.
  std::uint32_t class_older = kNoSlot;
  std::uint32_t class_newer = kNoSlot;

  // N-Chance: recirculations remaining. > 0 means this copy is a singlet
  // recirculating through caches it was forwarded to (global data).
  std::uint8_t recirculation_count = 0;

  // N-Chance: the client learned this block is the last cached copy but is
  // holding it as normal local data (no recirculation count set). Spares a
  // repeat is-singlet query; reset when another client fetches a copy.
  bool singlet_flag = false;

  // Delayed-write extension: this copy holds data newer than the server's.
  bool dirty = false;

  // The victim-class sublist this entry sits on, or kNoClass. Two bytes:
  // counts 1..255 plus the unqueried class and kNoClass.
  std::uint16_t victim_class = kNoClass;

  bool recirculating() const { return recirculation_count > 0; }
};

// A wider entry costs every cache in the process a slab line per block
// (peak RSS on long replays); see docs/performance.md "Victim selection".
static_assert(sizeof(CacheEntry) == 64);

// Aligned so that caches of different serve shards, allocated side by side,
// never share a cache line their owning threads both write.
class alignas(64) BlockCache {
 public:
  // The sublist of entries neither recirculating nor flag-marked singlets.
  static constexpr std::size_t kUnqueried = 0;

  // Capacity in 8 KB blocks. A zero-capacity cache is legal (e.g. the local
  // section when 100% of client memory is centrally coordinated) and simply
  // rejects insertion. The entry slab and the index are fully allocated
  // here; steady-state operation never allocates. With an arena, the slab,
  // free list, and index all draw from it (sweep workers reuse one arena
  // across jobs instead of re-faulting fresh heap pages per job).
  explicit BlockCache(std::size_t capacity_blocks, Arena* arena = nullptr)
      : capacity_(capacity_blocks),
        slab_(capacity_blocks, ArenaAllocator<CacheEntry>(arena)),
        free_slots_(ArenaAllocator<std::uint32_t>(arena)),
        index_(arena),
        classes_(ArenaAllocator<ClassList>(arena)) {
    index_.Reserve(capacity_);
    free_slots_.reserve(capacity_);
    // Pop from the back: slots are handed out in ascending order.
    for (std::size_t i = capacity_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  BlockCache(BlockCache&&) = delete;
  BlockCache& operator=(BlockCache&&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool Full() const { return size() >= capacity_; }
  bool CanInsert() const { return capacity_ > 0; }

  bool Contains(BlockId block) const { return index_.Contains(block.Pack()); }

  // Lookup without changing LRU order. Returns nullptr if absent. Entry
  // pointers stay valid until that block is erased (slab storage).
  CacheEntry* Find(BlockId block) {
    const std::uint32_t* slot = index_.Find(block.Pack());
    return slot == nullptr ? nullptr : &slab_[*slot];
  }
  const CacheEntry* Find(BlockId block) const {
    const std::uint32_t* slot = index_.Find(block.Pack());
    return slot == nullptr ? nullptr : &slab_[*slot];
  }

  // Lookup and move to the MRU position. Returns nullptr if absent.
  CacheEntry* Touch(BlockId block) {
    CacheEntry* entry = Find(block);
    if (entry != nullptr) {
      lru_.MoveToFront(entry);
      if (tracks_victim_classes()) {
        entry->lru_stamp = ++stamp_;
        if (entry->victim_class != CacheEntry::kNoClass &&
            entry->class_newer != CacheEntry::kNoSlot) {
          MoveToClassNewest(*entry);
        }
      }
    }
    return entry;
  }

  // Inserts a new entry at the MRU position. Requires space (callers evict
  // first) and that the block is not already present.
  CacheEntry& Insert(BlockId block) {
    assert(CanInsert() && !Full());
    auto [slot, inserted] = index_.TryEmplace(block.Pack());
    assert(inserted && "block already cached");
    *slot = free_slots_.back();
    free_slots_.pop_back();
    CacheEntry& entry = slab_[*slot];
    entry = CacheEntry{};  // Fresh metadata; the slot's node is unlinked.
    entry.block = block;
    lru_.PushFront(&entry);
    if (tracks_victim_classes()) {
      entry.lru_stamp = ++stamp_;
      LinkNewest(entry, kUnqueried);
    }
    return entry;
  }

  // Removes `block` if present; returns true if it was.
  bool Erase(BlockId block) {
    const std::uint32_t* slot = index_.Find(block.Pack());
    if (slot == nullptr) {
      return false;
    }
    const std::uint32_t freed = *slot;
    if (slab_[freed].victim_class != CacheEntry::kNoClass) {
      UnlinkClass(slab_[freed]);
    }
    lru_.Remove(&slab_[freed]);
    index_.Erase(block.Pack());
    free_slots_.push_back(freed);
    return true;
  }

  // The least-recently-used entry, or nullptr when empty.
  CacheEntry* Lru() { return lru_.Back(); }
  CacheEntry* Mru() { return lru_.Front(); }

  // Evicts the LRU entry, returning a copy of it.
  std::optional<CacheEntry> EvictLru() {
    CacheEntry* victim = Lru();
    if (victim == nullptr) {
      return std::nullopt;
    }
    CacheEntry copy = *victim;
    copy.lru_node = IntrusiveListNode{};
    Erase(victim->block);
    return copy;
  }

  // Visits entries from LRU to MRU until `visitor` returns true (stop) or
  // `limit` entries have been seen (0 = no limit). Returns the entry the
  // visitor stopped on, or nullptr. The visitor must not mutate the cache.
  // List order is deterministic and independent of index capacity.
  template <typename Visitor>
  CacheEntry* ScanFromLru(Visitor&& visitor, std::size_t limit = 0) {
    std::size_t seen = 0;
    for (IntrusiveListNode* node = LruNodeBack(); node != nullptr;) {
      auto* entry = static_cast<CacheEntry*>(node->owner);
      IntrusiveListNode* prev = PrevOf(node);
      if (visitor(*entry)) {
        return entry;
      }
      if (limit != 0 && ++seen >= limit) {
        return nullptr;
      }
      node = prev;
    }
    return nullptr;
  }

  // ---- Victim classes (see the file comment) ----

  // Stamps the current contents in LRU order, builds sublists for the
  // unqueried class and recirculation counts 1..max_count from them, and
  // keeps both from now on. (The scan reads only the main list; it writes
  // only stamps and sublist links.)
  void TrackVictimClasses(std::uint8_t max_count) {
    classes_.assign(std::size_t{max_count} + 1, ClassList{});
    ScanFromLru([this](CacheEntry& entry) {
      entry.lru_stamp = ++stamp_;
      entry.victim_class = CacheEntry::kNoClass;
      if (const std::uint16_t victim_class = ClassOf(entry);
          victim_class != CacheEntry::kNoClass) {
        LinkNewest(entry, victim_class);
      }
      return false;
    });
  }

  bool tracks_victim_classes() const { return !classes_.empty(); }

  // Number of sublists (max_count + 1), 0 when not tracking.
  std::size_t victim_class_count() const { return classes_.size(); }

  // The sublist `entry`'s fields call for: kUnqueried, its recirculation
  // count, or CacheEntry::kNoClass for a flag-marked singlet.
  static std::uint16_t ClassOf(const CacheEntry& entry) {
    if (entry.recirculating()) {
      return entry.recirculation_count;
    }
    return entry.singlet_flag ? CacheEntry::kNoClass : std::uint16_t{kUnqueried};
  }

  // Moves `entry` (of this cache) to the sublist its fields now call for,
  // at the place its stamp gives. O(1) when its class is unchanged or it is
  // the newest of its new class; otherwise it walks to its place (see
  // LinkByStamp).
  void Reclassify(CacheEntry& entry) {
    const std::uint16_t victim_class = ClassOf(entry);
    if (!tracks_victim_classes() || victim_class == entry.victim_class) {
      return;
    }
    assert((victim_class == CacheEntry::kNoClass || victim_class < classes_.size()) &&
           "recirculation count beyond the tracked range");
    if (entry.victim_class != CacheEntry::kNoClass) {
      UnlinkClass(entry);
    }
    if (victim_class != CacheEntry::kNoClass) {
      LinkByStamp(entry, victim_class);
    }
  }

  // Oldest entry of sublist `victim_class`, or nullptr when it is empty.
  CacheEntry* OldestInClass(std::size_t victim_class) {
    return At(classes_[victim_class].oldest);
  }
  const CacheEntry* OldestInClass(std::size_t victim_class) const {
    return At(classes_[victim_class].oldest);
  }

  // The next newer entry on `entry`'s sublist, or nullptr at its new end.
  const CacheEntry* NewerInClass(const CacheEntry& entry) const {
    return At(entry.class_newer);
  }

  // Visits every entry in unspecified, capacity-dependent order
  // (introspection/validation). Callers must aggregate order-independently;
  // use ScanFromLru for deterministic order.
  template <typename Visitor>
  void ForEachEntry(Visitor&& visitor) const {
    index_.ForEach(
        [this, &visitor](std::uint64_t, const std::uint32_t& slot) { visitor(slab_[slot]); });
  }

  // ---- Introspection gauges (state sampling; off the hot path) ----

  // Entries currently recirculating (N-Chance copies in flight).
  std::size_t RecirculatingCount() const {
    std::size_t count = 0;
    ForEachEntry([&count](const CacheEntry& entry) { count += entry.recirculating() ? 1 : 0; });
    return count;
  }

  // Entries holding dirty (unflushed) data under delayed writes.
  std::size_t DirtyCount() const {
    std::size_t count = 0;
    ForEachEntry([&count](const CacheEntry& entry) { count += entry.dirty ? 1 : 0; });
    return count;
  }

  // Block-index occupancy and probe-length statistics (observability).
  FlatMapStats IndexStats() const { return index_.Stats(); }

  // Removes every entry. (Used by tests.)
  void Clear() {
    std::fill(classes_.begin(), classes_.end(), ClassList{});
    lru_.Clear();
    index_.Clear();
    free_slots_.clear();
    for (std::size_t i = capacity_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

 private:
  // One victim-class sublist's ends (slab slots).
  struct ClassList {
    std::uint32_t oldest = CacheEntry::kNoSlot;
    std::uint32_t newest = CacheEntry::kNoSlot;
  };

  std::uint32_t SlotOf(const CacheEntry& entry) const {
    return static_cast<std::uint32_t>(&entry - slab_.data());
  }
  CacheEntry* At(std::uint32_t slot) {
    return slot == CacheEntry::kNoSlot ? nullptr : &slab_[slot];
  }
  const CacheEntry* At(std::uint32_t slot) const {
    return slot == CacheEntry::kNoSlot ? nullptr : &slab_[slot];
  }

  void UnlinkClass(CacheEntry& entry) {
    ClassList& list = classes_[entry.victim_class];
    (entry.class_older == CacheEntry::kNoSlot ? list.oldest
                                              : slab_[entry.class_older].class_newer) =
        entry.class_newer;
    (entry.class_newer == CacheEntry::kNoSlot ? list.newest
                                              : slab_[entry.class_newer].class_older) =
        entry.class_older;
    entry.class_older = CacheEntry::kNoSlot;
    entry.class_newer = CacheEntry::kNoSlot;
    entry.victim_class = CacheEntry::kNoClass;
  }

  // Links the (unlinked) entry in front of `newer`, or at the new end when
  // `newer` is kNoSlot.
  void LinkBefore(CacheEntry& entry, std::uint16_t victim_class, std::uint32_t newer) {
    assert(victim_class < classes_.size() && "recirculation count beyond the tracked range");
    ClassList& list = classes_[victim_class];
    const std::uint32_t slot = SlotOf(entry);
    const std::uint32_t older = newer == CacheEntry::kNoSlot ? list.newest
                                                             : slab_[newer].class_older;
    entry.class_older = older;
    entry.class_newer = newer;
    entry.victim_class = victim_class;
    (older == CacheEntry::kNoSlot ? list.oldest : slab_[older].class_newer) = slot;
    (newer == CacheEntry::kNoSlot ? list.newest : slab_[newer].class_older) = slot;
  }

  void LinkNewest(CacheEntry& entry, std::uint16_t victim_class) {
    LinkBefore(entry, victim_class, CacheEntry::kNoSlot);
  }

  // Touch's relink, for an entry with a newer member in its class: the
  // same effect as UnlinkClass + LinkNewest, in the fewest stores.
  void MoveToClassNewest(CacheEntry& entry) {
    ClassList& list = classes_[entry.victim_class];
    const std::uint32_t slot = SlotOf(entry);
    slab_[entry.class_newer].class_older = entry.class_older;
    (entry.class_older == CacheEntry::kNoSlot ? list.oldest
                                              : slab_[entry.class_older].class_newer) =
        entry.class_newer;
    slab_[list.newest].class_newer = slot;
    entry.class_older = list.newest;
    entry.class_newer = CacheEntry::kNoSlot;
    list.newest = slot;
  }

  // Links the (unlinked) entry where its stamp puts it in `victim_class`.
  // Past the O(1) newest case, two cursors advance in step and the first to
  // find the place wins: one walks the class from its old end to the first
  // newer member, the other walks the main list from the entry toward the
  // LRU end to the nearest older member. The first is short when the class
  // holds few older entries, the second when the class is dense.
  void LinkByStamp(CacheEntry& entry, std::uint16_t victim_class) {
    const ClassList& list = classes_[victim_class];
    if (list.newest == CacheEntry::kNoSlot || slab_[list.newest].lru_stamp < entry.lru_stamp) {
      LinkNewest(entry, victim_class);
      return;
    }
    // The class's newest member is newer than the entry, so the class cursor
    // stops before running off the class.
    std::uint32_t newer = list.oldest;
    const IntrusiveListNode* older = entry.lru_node.next;
    while (slab_[newer].lru_stamp < entry.lru_stamp) {
      const auto* candidate = static_cast<const CacheEntry*>(older->owner);
      if (candidate == nullptr) {  // Reached the sentinel: no older member.
        newer = list.oldest;
        break;
      }
      if (candidate->victim_class == victim_class) {
        newer = candidate->class_newer;
        break;
      }
      older = older->next;
      newer = slab_[newer].class_newer;
    }
    LinkBefore(entry, victim_class, newer);
  }

  // Back (LRU) node or nullptr when empty; Prev walks toward MRU.
  IntrusiveListNode* LruNodeBack() {
    CacheEntry* back = lru_.Back();
    return back == nullptr ? nullptr : &back->lru_node;
  }
  IntrusiveListNode* PrevOf(IntrusiveListNode* node) {
    IntrusiveListNode* prev = node->prev;
    return (prev == nullptr || prev->owner == nullptr) ? nullptr : prev;
  }

  std::size_t capacity_;
  // Stable entry storage, one per slot.
  std::vector<CacheEntry, ArenaAllocator<CacheEntry>> slab_;
  // Unused slab slots (LIFO).
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> free_slots_;
  FlatHashMap<std::uint64_t, std::uint32_t> index_;  // Packed BlockId -> slot.
  IntrusiveList<CacheEntry, &CacheEntry::lru_node> lru_;
  std::uint64_t stamp_ = 0;  // Last stamp handed out.
  // Victim-class sublists, indexed by class; empty when not tracking.
  std::vector<ClassList, ArenaAllocator<ClassList>> classes_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CACHE_BLOCK_CACHE_H_
