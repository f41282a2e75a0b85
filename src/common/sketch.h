// Bounded-memory streaming statistics: count-min sketch, Space-Saving
// top-K, and reservoir sampling.
//
// The observability stack's exact accumulators (per-client read arrays,
// per-window client triplets) grow linearly with client count, which the
// ROADMAP's million-client scale-out cannot afford. These primitives trade
// bounded, configurable error for O(K) memory independent of the key
// population, and are the backing store for src/obs/stream_stats.h:
//
//   * CountMinSketch  — frequency estimation with one-sided error: the
//     estimate never undercounts, and overcounts by at most eps * total
//     with probability 1 - delta for width >= e/eps, depth >= ln(1/delta)
//     (Cormode & Muthukrishnan '05).
//   * SpaceSaving     — the top-K heavy hitters with per-entry error bounds
//     (Metwally et al. '05). Any key with true count > total/K is
//     guaranteed present; `count - error` lower-bounds the true count.
//     Optionally consults a CountMinSketch before evicting the minimum so
//     one-off keys do not churn the summary.
//   * ReservoirSampler — a uniform fixed-size sample of a stream
//     (Vitter's Algorithm R) for quantile and Gini estimation.
//
// All three are deterministic: hashing derives from an explicit seed via
// SplitMix64 and the reservoir draws from the repo's Rng, so identical
// replays produce identical summaries regardless of wall clock or thread
// count. None of them allocates after construction.
//
// Exact quantiles come from QuantileFromSorted over one ascending sample, or
// QuantileFromSortedRuns over several ascending runs without merging them.
#ifndef COOPFS_SRC_COMMON_SKETCH_H_
#define COOPFS_SRC_COMMON_SKETCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace coopfs {

// Count-min sketch over 64-bit keys. Width is a power of two so row
// indexing is a mask, not a modulo, and row cells derive from two hashes
// via Kirsch–Mitzenmacher double hashing (row d probes h1 + d*h2): the
// sketch sits on the simulator's per-read hot path, so each update costs
// two SplitMix64 mixes regardless of depth instead of one per row.
class CountMinSketch {
 public:
  // `width_log2` in [1, 30]; `depth` >= 1. Memory = depth * 2^width_log2
  // counters. The two probe hash functions are derived from `seed`.
  CountMinSketch(std::uint32_t width_log2, std::uint32_t depth, std::uint64_t seed)
      : width_mask_((std::uint64_t{1} << width_log2) - 1),
        depth_(depth),
        counters_(static_cast<std::size_t>(depth) << width_log2, 0) {
    assert(width_log2 >= 1 && width_log2 <= 30);
    assert(depth >= 1);
    SplitMix64 sm(seed);
    seed1_ = sm.Next();
    seed2_ = sm.Next();
  }

  void Add(std::uint64_t key, std::uint64_t count = 1) {
    const std::uint64_t h1 = MixHash64(key + seed1_);
    // Odd stride: visits every cell of a power-of-two row before repeating.
    const std::uint64_t h2 = MixHash64(key + seed2_) | 1;
    const std::size_t width = width_mask_ + 1;
    for (std::uint32_t d = 0; d < depth_; ++d) {
      counters_[d * width + static_cast<std::size_t>((h1 + d * h2) & width_mask_)] += count;
    }
    total_ += count;
  }

  // Point estimate: min over rows; never less than the true count.
  std::uint64_t Estimate(std::uint64_t key) const {
    const std::uint64_t h1 = MixHash64(key + seed1_);
    const std::uint64_t h2 = MixHash64(key + seed2_) | 1;
    const std::size_t width = width_mask_ + 1;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t d = 0; d < depth_; ++d) {
      best = std::min(
          best, counters_[d * width + static_cast<std::size_t>((h1 + d * h2) & width_mask_)]);
    }
    return best;
  }

  // Self-join size (F2 = sum of squared key counts) estimate: min over rows
  // of the row's sum of squared cells. Like Estimate, one-sided — never
  // below the true F2 — because colliding keys only inflate a cell's
  // square. Used for coefficient-of-variation fairness summaries.
  double EstimateF2() const {
    const std::size_t width = width_mask_ + 1;
    double best = std::numeric_limits<double>::max();
    for (std::uint32_t d = 0; d < depth_; ++d) {
      double row = 0.0;
      for (std::size_t i = 0; i < width; ++i) {
        const auto cell = static_cast<double>(counters_[d * width + i]);
        row += cell * cell;
      }
      best = std::min(best, row);
    }
    return depth_ == 0 ? 0.0 : best;
  }

  std::uint64_t total() const { return total_; }

  std::uint64_t MemoryBytes() const {
    return counters_.size() * sizeof(std::uint64_t) + 2 * sizeof(std::uint64_t);
  }

 private:
  std::uint64_t width_mask_;
  std::uint32_t depth_;
  std::uint64_t seed1_ = 0;
  std::uint64_t seed2_ = 0;
  std::vector<std::uint64_t> counters_;
  std::uint64_t total_ = 0;
};

// Space-Saving top-K summary over 64-bit keys. Each entry carries the
// classic (count, error) pair: true_count <= count, and count - error <=
// true_count. Entries may also carry `aux_slots` per-entry counters
// (e.g. per-cache-level read counts); aux counters reset when an entry is
// recycled for a new key, so they undercount at most by the recycled
// prefix — the same one-sided bound as `error`.
class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  explicit SpaceSaving(std::uint32_t capacity, std::uint32_t aux_slots = 0)
      : capacity_(capacity > 0 ? capacity : 1), aux_slots_(aux_slots) {
    entries_.reserve(capacity_);
    aux_.assign(static_cast<std::size_t>(capacity_) * aux_slots_, 0);
    index_.Reserve(capacity_);
  }

  // Records one occurrence of `key`. When the summary is full and the key
  // is new, the minimum-count entry is recycled (Metwally replacement);
  // if `filter` is non-null the replacement only happens when the sketch
  // estimate of the new key exceeds the minimum count, so cold keys cannot
  // evict established heavy hitters. `aux_slot` < aux_slots increments the
  // entry's aux counter of that slot.
  void Add(std::uint64_t key, const CountMinSketch* filter = nullptr,
           std::uint32_t aux_slot = kNoAuxSlot) {
    if (std::uint32_t* slot = index_.Find(key); slot != nullptr) {
      ++entries_[*slot].count;
      BumpAux(*slot, aux_slot);
      return;
    }
    if (entries_.size() < capacity_) {
      const auto slot = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{key, 1, 0});
      index_[key] = slot;
      BumpAux(slot, aux_slot);
      return;
    }
    const std::uint32_t victim = MinSlot();
    if (filter != nullptr && filter->Estimate(key) <= entries_[victim].count) {
      return;  // The sketch says this key cannot beat the current minimum.
    }
    index_.Erase(entries_[victim].key);
    const std::uint64_t floor = entries_[victim].count;
    entries_[victim] = Entry{key, floor + 1, floor};
    ResetAux(victim);
    index_[key] = victim;
    BumpAux(victim, aux_slot);
  }

  // Like Add with a filter, but the summary and `sketch` together hold the
  // key's frequency record: reads of currently-tracked keys are counted
  // exactly in their entry and skip the sketch entirely, while untracked
  // keys are counted into the sketch before the eviction decision. The
  // tracked-key fast path — one index hit and two counter bumps, no
  // hashing into the sketch — is what keeps hot-key streams cheap on the
  // simulator's read path. The sketch estimate of a key then lower-bounds
  // its true count by only the reads it issued while untracked, which
  // makes the eviction filter strictly more conservative than Add's; the
  // per-entry (count, error) bounds are unchanged.
  void AddFiltered(std::uint64_t key, CountMinSketch& sketch,
                   std::uint32_t aux_slot = kNoAuxSlot) {
    if (std::uint32_t* slot = index_.Find(key); slot != nullptr) {
      ++entries_[*slot].count;
      BumpAux(*slot, aux_slot);
      return;
    }
    sketch.Add(key);
    if (entries_.size() < capacity_) {
      const auto slot = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{key, 1, 0});
      index_[key] = slot;
      BumpAux(slot, aux_slot);
      return;
    }
    const std::uint32_t victim = MinSlot();
    if (sketch.Estimate(key) <= entries_[victim].count) {
      return;
    }
    index_.Erase(entries_[victim].key);
    const std::uint64_t floor = entries_[victim].count;
    entries_[victim] = Entry{key, floor + 1, floor};
    ResetAux(victim);
    index_[key] = victim;
    BumpAux(victim, aux_slot);
  }

  // Forgets every entry; capacity and reserved storage are kept (used by
  // per-window trackers that reset at sample boundaries).
  void Clear() {
    entries_.clear();
    std::fill(aux_.begin(), aux_.end(), 0);
    index_.Clear();
  }

  std::size_t size() const { return entries_.size(); }
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t aux_slots() const { return aux_slots_; }

  // Aux counters of the entry at `slot` (slot < size()).
  const std::uint64_t* AuxFor(std::uint32_t slot) const {
    return aux_.data() + static_cast<std::size_t>(slot) * aux_slots_;
  }

  const std::vector<Entry>& entries() const { return entries_; }

  // Entry slots ordered by count descending, key ascending on ties —
  // a deterministic ranking independent of insertion order.
  std::vector<std::uint32_t> RankedSlots() const {
    std::vector<std::uint32_t> slots(entries_.size());
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
      slots[i] = i;
    }
    std::sort(slots.begin(), slots.end(), [this](std::uint32_t a, std::uint32_t b) {
      if (entries_[a].count != entries_[b].count) {
        return entries_[a].count > entries_[b].count;
      }
      return entries_[a].key < entries_[b].key;
    });
    return slots;
  }

  std::uint64_t MemoryBytes() const {
    return capacity_ * sizeof(Entry) + aux_.size() * sizeof(std::uint64_t) +
           index_.bucket_count() * (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 1);
  }

  static constexpr std::uint32_t kNoAuxSlot = ~std::uint32_t{0};

 private:
  std::uint32_t MinSlot() const {
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < entries_.size(); ++i) {
      // Ties break toward the lower slot: deterministic and
      // insertion-order-stable.
      if (entries_[i].count < entries_[best].count) {
        best = i;
      }
    }
    return best;
  }

  void BumpAux(std::uint32_t slot, std::uint32_t aux_slot) {
    if (aux_slot < aux_slots_) {
      ++aux_[static_cast<std::size_t>(slot) * aux_slots_ + aux_slot];
    }
  }

  void ResetAux(std::uint32_t slot) {
    std::fill_n(aux_.begin() + static_cast<std::size_t>(slot) * aux_slots_, aux_slots_, 0);
  }

  std::uint32_t capacity_;
  std::uint32_t aux_slots_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> aux_;  // capacity_ x aux_slots_, row-major.
  FlatHashMap<std::uint64_t, std::uint32_t> index_;  // key -> entry slot.
};

// Uniform fixed-size sample of a double stream (Vitter's Algorithm R),
// deterministic for a given seed and insertion sequence.
class ReservoirSampler {
 public:
  ReservoirSampler(std::uint32_t capacity, std::uint64_t seed)
      : capacity_(capacity > 0 ? capacity : 1), rng_(seed) {
    values_.reserve(capacity_);
  }

  void Add(double value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    const std::uint64_t slot = rng_.NextBelow(seen_);
    if (slot < capacity_) {
      values_[static_cast<std::size_t>(slot)] = value;
    }
  }

  std::uint64_t seen() const { return seen_; }
  std::uint32_t capacity() const { return capacity_; }
  const std::vector<double>& values() const { return values_; }

  // Ascending copy of the sample, the input to Quantile/Gini helpers.
  std::vector<double> Sorted() const {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  std::uint64_t MemoryBytes() const { return capacity_ * sizeof(double); }

 private:
  std::uint32_t capacity_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
  Rng rng_;
};

namespace sketch_internal {

// Linear-interpolated quantile of an ascending sample of `size` values, read
// through value_at(rank); 0 when empty.
template <typename ValueAt>
double InterpolatedQuantile(std::size_t size, double q, const ValueAt& value_at) {
  if (size == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(size - 1);
  const auto lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, size - 1);
  const double frac = position - static_cast<double>(lo);
  const double lo_value = value_at(lo);
  return lo_value + frac * (value_at(hi) - lo_value);
}

// The value of 0-based rank `rank` in the ascending union of `runs`, each
// ascending, without building the union; rank < the runs' total size.
//
// Each run keeps a window [lo, hi) that may still hold the answer: what lies
// before lo is below it and what lies from hi on is above it, so `rank`
// stays a rank in the whole union. Each step picks the weighted median of
// the windows' middle values as the pivot and counts, one binary search per
// run, the values below it and those at most it. Either the pivot is the
// answer or a quarter or more of the windows' values leave them, so a step
// costs O(runs x log n) and there are O(log n) steps.
inline double ValueAtRank(std::span<const std::span<const double>> runs, std::size_t rank) {
  struct Window {
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t below = 0;    // Values < pivot in the run.
    std::size_t through = 0;  // Values <= pivot in the run.
  };
  std::vector<Window> windows(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    windows[i].hi = runs[i].size();
  }
  std::vector<std::pair<double, std::size_t>> middles;  // (middle value, window size)
  middles.reserve(runs.size());
  for (;;) {
    middles.clear();
    std::size_t remaining = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Window& window = windows[i];
      if (window.lo < window.hi) {
        middles.emplace_back(runs[i][window.lo + (window.hi - window.lo) / 2],
                             window.hi - window.lo);
        remaining += window.hi - window.lo;
      }
    }
    assert(remaining > 0 && "rank out of range");
    std::sort(middles.begin(), middles.end());
    double pivot = middles.back().first;
    std::size_t weight = 0;
    for (const auto& [value, size] : middles) {
      weight += size;
      if (2 * weight >= remaining) {
        pivot = value;
        break;
      }
    }
    std::size_t below = 0;
    std::size_t through = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      Window& window = windows[i];
      const double* first = runs[i].data();
      const double* lower = std::lower_bound(first + window.lo, first + window.hi, pivot);
      window.below = static_cast<std::size_t>(lower - first);
      window.through =
          static_cast<std::size_t>(std::upper_bound(lower, first + window.hi, pivot) - first);
      below += window.below;
      through += window.through;
    }
    if (rank >= below && rank < through) {
      return pivot;
    }
    for (Window& window : windows) {
      if (rank < below) {
        window.hi = window.below;
      } else {
        window.lo = window.through;
      }
    }
  }
}

}  // namespace sketch_internal

// Linear-interpolated quantile of an ascending sample; 0 when empty.
inline double QuantileFromSorted(const std::vector<double>& sorted, double q) {
  return sketch_internal::InterpolatedQuantile(
      sorted.size(), q, [&sorted](std::size_t rank) { return sorted[rank]; });
}

// QuantileFromSorted over the ascending union of `runs`, each ascending,
// without building the union: the values at the same ranks, found by rank
// selection across the runs, and the same interpolation, so the same double
// bit for bit. 0 when every run is empty.
inline double QuantileFromSortedRuns(std::span<const std::span<const double>> runs, double q) {
  std::size_t size = 0;
  for (const std::span<const double> run : runs) {
    size += run.size();
  }
  return sketch_internal::InterpolatedQuantile(
      size, q, [runs](std::size_t rank) { return sketch_internal::ValueAtRank(runs, rank); });
}

// Gini coefficient of an ascending non-negative sample: 0 = perfectly
// equal, -> 1 = one value holds all the mass. 0 when empty or all-zero.
inline double GiniFromSorted(const std::vector<double>& sorted) {
  if (sorted.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sum += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  if (sum <= 0.0) {
    return 0.0;
  }
  const auto n = static_cast<double>(sorted.size());
  const double gini = (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
  return std::clamp(gini, 0.0, 1.0);
}

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_SKETCH_H_
