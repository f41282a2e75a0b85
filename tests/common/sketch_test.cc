// Tests for the bounded-memory streaming primitives (src/common/sketch.h):
// count-min one-sided error, Space-Saving exactness and heavy-hitter
// recovery, reservoir quantiles, and the quantile/Gini helpers, including
// quantiles read across sorted runs.
#include "src/common/sketch.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace coopfs {
namespace {

TEST(CountMinSketchTest, NeverUndercounts) {
  CountMinSketch sketch(8, 4, 42);
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.NextBelow(600);  // Denser than 2^8 cells.
    sketch.Add(key);
    ++exact[key];
  }
  EXPECT_EQ(sketch.total(), 5000u);
  for (const auto& [key, count] : exact) {
    EXPECT_GE(sketch.Estimate(key), count) << "key " << key;
  }
}

TEST(CountMinSketchTest, ExactWhenSparse) {
  // A handful of keys in a wide sketch should essentially never collide.
  CountMinSketch sketch(12, 4, 1);
  for (std::uint64_t key = 0; key < 8; ++key) {
    for (std::uint64_t n = 0; n <= key; ++n) {
      sketch.Add(key);
    }
  }
  for (std::uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(sketch.Estimate(key), key + 1);
  }
}

TEST(CountMinSketchTest, F2NeverUndercounts) {
  CountMinSketch sketch(8, 4, 9);
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng.NextBelow(400);
    sketch.Add(key);
    ++exact[key];
  }
  double true_f2 = 0.0;
  for (const auto& [key, count] : exact) {
    true_f2 += static_cast<double>(count) * static_cast<double>(count);
  }
  EXPECT_GE(sketch.EstimateF2(), true_f2);
  // The estimate is still a useful bound, not total^2.
  EXPECT_LT(sketch.EstimateF2(), 3000.0 * 3000.0);
}

TEST(CountMinSketchTest, DeterministicForSeed) {
  CountMinSketch a(10, 3, 77);
  CountMinSketch b(10, 3, 77);
  for (std::uint64_t key = 0; key < 100; ++key) {
    a.Add(key * 31);
    b.Add(key * 31);
  }
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(a.Estimate(key * 31), b.Estimate(key * 31));
  }
}

TEST(SpaceSavingTest, ExactWhenDistinctKeysFit) {
  SpaceSaving summary(8);
  const std::uint64_t counts[] = {5, 3, 9, 1};
  for (std::uint64_t key = 0; key < 4; ++key) {
    for (std::uint64_t n = 0; n < counts[key]; ++n) {
      summary.Add(key);
    }
  }
  ASSERT_EQ(summary.size(), 4u);
  const std::vector<std::uint32_t> ranked = summary.RankedSlots();
  EXPECT_EQ(summary.entries()[ranked[0]].key, 2u);
  EXPECT_EQ(summary.entries()[ranked[0]].count, 9u);
  for (std::uint32_t slot : ranked) {
    EXPECT_EQ(summary.entries()[slot].error, 0u);
    EXPECT_EQ(summary.entries()[slot].count, counts[summary.entries()[slot].key]);
  }
}

TEST(SpaceSavingTest, CountBoundsHoldUnderEviction) {
  SpaceSaving summary(4);
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    // Zipf-ish: low keys much more frequent.
    const std::uint64_t key = rng.NextBelow(1 + rng.NextBelow(40));
    summary.Add(key);
    ++exact[key];
  }
  for (const SpaceSaving::Entry& entry : summary.entries()) {
    const std::uint64_t truth = exact[entry.key];
    EXPECT_GE(entry.count, truth);                // Never undercounts.
    EXPECT_LE(entry.count - entry.error, truth);  // count - error lower-bounds.
  }
}

TEST(SpaceSavingTest, RecoversHeavyHittersFromZipf) {
  // Space-Saving guarantee: any key with true count > total/K is present.
  constexpr std::uint32_t kCapacity = 8;
  SpaceSaving summary(kCapacity);
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(5);
  std::uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) {
    // Key k with probability ~ 1/(k+1)^2: key 0 dominates.
    std::uint64_t key = 0;
    while (key < 50 && rng.NextBelow(100) < 60) {
      ++key;
    }
    summary.Add(key);
    ++exact[key];
    ++total;
  }
  for (const auto& [key, count] : exact) {
    if (count > total / kCapacity) {
      bool present = false;
      for (const SpaceSaving::Entry& entry : summary.entries()) {
        present = present || entry.key == key;
      }
      EXPECT_TRUE(present) << "heavy key " << key << " (count " << count << ") missing";
    }
  }
}

TEST(SpaceSavingTest, SketchFilterBlocksColdKeys) {
  CountMinSketch sketch(12, 4, 3);
  SpaceSaving summary(2);
  for (int i = 0; i < 10; ++i) {
    sketch.Add(1);
    summary.Add(1, &sketch);
    sketch.Add(2);
    summary.Add(2, &sketch);
  }
  // A one-off key estimates 1 <= min count 10: the filter rejects it.
  sketch.Add(99);
  summary.Add(99, &sketch);
  for (const SpaceSaving::Entry& entry : summary.entries()) {
    EXPECT_NE(entry.key, 99u);
    EXPECT_EQ(entry.error, 0u);
  }
}

TEST(SpaceSavingTest, FilteredAddSkipsSketchForTrackedKeys) {
  CountMinSketch sketch(12, 2, 3);
  SpaceSaving summary(2);
  for (int i = 0; i < 10; ++i) {
    summary.AddFiltered(1, sketch);
    summary.AddFiltered(2, sketch);
  }
  // Tracked keys count exactly in the summary; only their first (untracked)
  // read reached the sketch.
  ASSERT_EQ(summary.size(), 2u);
  for (const SpaceSaving::Entry& entry : summary.entries()) {
    EXPECT_EQ(entry.count, 10u);
    EXPECT_EQ(entry.error, 0u);
  }
  EXPECT_EQ(sketch.total(), 2u);

  // A one-off key estimates 1 <= min count 10: the filter rejects it, and
  // its read stays recorded in the sketch.
  summary.AddFiltered(99, sketch);
  for (const SpaceSaving::Entry& entry : summary.entries()) {
    EXPECT_NE(entry.key, 99u);
  }
  EXPECT_GE(sketch.Estimate(99), 1u);

  // A key hammered while untracked accumulates sketch evidence until it
  // beats the minimum and takes over a slot with the Metwally bounds.
  for (int i = 0; i < 12; ++i) {
    summary.AddFiltered(50, sketch);
  }
  bool found = false;
  for (const SpaceSaving::Entry& entry : summary.entries()) {
    if (entry.key == 50) {
      found = true;
      EXPECT_GE(entry.count, entry.error);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpaceSavingTest, AuxCountersFollowTheirEntry) {
  SpaceSaving summary(2, /*aux_slots=*/3);
  summary.Add(7, nullptr, 0);
  summary.Add(7, nullptr, 2);
  summary.Add(7, nullptr, 2);
  ASSERT_EQ(summary.size(), 1u);
  const std::uint64_t* aux = summary.AuxFor(0);
  EXPECT_EQ(aux[0], 1u);
  EXPECT_EQ(aux[1], 0u);
  EXPECT_EQ(aux[2], 2u);

  // Recycling the slot for a new key resets its aux counters.
  summary.Add(8, nullptr, 1);  // Fills capacity.
  summary.Add(9, nullptr, 1);  // Evicts the min (key 8, count 1).
  for (const SpaceSaving::Entry& entry : summary.entries()) {
    if (entry.key == 9) {
      std::uint32_t slot = 0;
      for (std::uint32_t i = 0; i < summary.size(); ++i) {
        if (summary.entries()[i].key == 9) {
          slot = i;
        }
      }
      EXPECT_EQ(summary.AuxFor(slot)[1], 1u);
      EXPECT_EQ(summary.AuxFor(slot)[0], 0u);
    }
  }
}

TEST(SpaceSavingTest, ClearKeepsCapacity) {
  SpaceSaving summary(4, 2);
  for (std::uint64_t key = 0; key < 10; ++key) {
    summary.Add(key, nullptr, 0);
  }
  summary.Clear();
  EXPECT_EQ(summary.size(), 0u);
  EXPECT_EQ(summary.capacity(), 4u);
  summary.Add(42, nullptr, 1);
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary.entries()[0].count, 1u);
  EXPECT_EQ(summary.entries()[0].error, 0u);
  EXPECT_EQ(summary.AuxFor(0)[1], 1u);
}

TEST(ReservoirSamplerTest, KeepsEverythingBelowCapacity) {
  ReservoirSampler reservoir(16, 1);
  for (int i = 0; i < 10; ++i) {
    reservoir.Add(static_cast<double>(i));
  }
  EXPECT_EQ(reservoir.seen(), 10u);
  EXPECT_EQ(reservoir.values().size(), 10u);
  const std::vector<double> sorted = reservoir.Sorted();
  EXPECT_DOUBLE_EQ(QuantileFromSorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted(sorted, 1.0), 9.0);
}

TEST(ReservoirSamplerTest, QuantilesTrackExactOnLargeStream) {
  // Uniform [0, 1000): the sampled quantiles should land near the truth.
  ReservoirSampler reservoir(512, 99);
  Rng rng(13);
  for (int i = 0; i < 100000; ++i) {
    reservoir.Add(static_cast<double>(rng.NextBelow(1000)));
  }
  EXPECT_EQ(reservoir.seen(), 100000u);
  EXPECT_EQ(reservoir.values().size(), 512u);
  const std::vector<double> sorted = reservoir.Sorted();
  EXPECT_NEAR(QuantileFromSorted(sorted, 0.5), 500.0, 75.0);
  EXPECT_NEAR(QuantileFromSorted(sorted, 0.9), 900.0, 75.0);
}

TEST(ReservoirSamplerTest, DeterministicForSeed) {
  ReservoirSampler a(32, 5);
  ReservoirSampler b(32, 5);
  for (int i = 0; i < 1000; ++i) {
    a.Add(static_cast<double>(i % 97));
    b.Add(static_cast<double>(i % 97));
  }
  EXPECT_EQ(a.values(), b.values());
}

TEST(QuantileFromSortedTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(QuantileFromSorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted({7.0}, 1.0), 7.0);
  const std::vector<double> pair{1.0, 3.0};
  EXPECT_DOUBLE_EQ(QuantileFromSorted(pair, 0.5), 2.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(QuantileFromSorted(pair, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted(pair, 2.0), 3.0);
}

TEST(QuantileFromSortedTest, P999ResolvesOnLargeAndSmallSamples) {
  // On a large sample, p999 interpolates inside the top thousandth.
  std::vector<double> large(10'000);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<double>(i);
  }
  const double p999 = QuantileFromSorted(large, 0.999);
  EXPECT_GE(p999, 9'989.0);
  EXPECT_LE(p999, 9'999.0);
  EXPECT_LE(QuantileFromSorted(large, 0.99), p999);
  EXPECT_LE(p999, QuantileFromSorted(large, 1.0));

  // On a sample too small to distinguish the tail, p999 degrades to the
  // near-max rather than inventing values.
  const std::vector<double> small{1.0, 2.0, 3.0};
  EXPECT_GE(QuantileFromSorted(small, 0.999), 2.0);
  EXPECT_LE(QuantileFromSorted(small, 0.999), 3.0);
}

// QuantileFromSortedRuns must equal QuantileFromSorted over the merged
// sample bit for bit, over runs with heavy ties and empty runs mixed in.
TEST(QuantileFromSortedRunsTest, MatchesQuantileOfTheMergedSample) {
  const std::vector<double> qs{0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0};
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<double>> runs(1 + rng.NextBelow(15));
    // A few distinct values per trial, so most samples tie with others.
    const std::uint64_t distinct = 1 + rng.NextBelow(trial % 3 == 0 ? 4 : 40);
    const std::uint64_t max_size = trial % 10 == 0 ? 5'000 : 300;
    std::vector<double> merged;
    for (std::vector<double>& run : runs) {
      const std::uint64_t size = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(max_size);
      for (std::uint64_t i = 0; i < size; ++i) {
        run.push_back(250.0 + 0.1 * static_cast<double>(rng.NextBelow(distinct)));
      }
      std::sort(run.begin(), run.end());
      merged.insert(merged.end(), run.begin(), run.end());
    }
    std::sort(merged.begin(), merged.end());
    const std::vector<std::span<const double>> spans(runs.begin(), runs.end());
    for (const double q : qs) {
      EXPECT_EQ(QuantileFromSortedRuns(spans, q), QuantileFromSorted(merged, q))
          << "trial " << trial << ", q " << q;
    }
  }
}

TEST(QuantileFromSortedRunsTest, OneElementAndEmptyTotals) {
  const std::vector<double> empty;
  const std::vector<double> one{7.5};
  const std::vector<std::span<const double>> single{empty, one, empty};
  const std::vector<std::span<const double>> none{empty, empty};
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(QuantileFromSortedRuns(single, q), QuantileFromSorted(one, q));
    EXPECT_EQ(QuantileFromSortedRuns(none, q), 0.0);
    EXPECT_EQ(QuantileFromSortedRuns({}, q), QuantileFromSorted(empty, q));
  }
}

TEST(GiniFromSortedTest, KnownValues) {
  EXPECT_DOUBLE_EQ(GiniFromSorted({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniFromSorted({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniFromSorted({5.0, 5.0, 5.0, 5.0}), 0.0);  // Equality.
  // One holder of all mass among n: G = (n-1)/n.
  EXPECT_NEAR(GiniFromSorted({0.0, 0.0, 0.0, 12.0}), 0.75, 1e-12);
  // {1,2,3}: G = 2*(1*1+2*2+3*3)/(3*6) - 4/3 = 28/18 - 24/18 = 2/9.
  EXPECT_NEAR(GiniFromSorted({1.0, 2.0, 3.0}), 2.0 / 9.0, 1e-12);
}

TEST(MemoryBytesTest, IndependentOfStreamLength) {
  CountMinSketch sketch(10, 4, 1);
  SpaceSaving summary(16, 4);
  ReservoirSampler reservoir(64, 1);
  const std::uint64_t before =
      sketch.MemoryBytes() + summary.MemoryBytes() + reservoir.MemoryBytes();
  Rng rng(1);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = rng.Next();
    sketch.Add(key);
    summary.Add(key);
    reservoir.Add(static_cast<double>(key & 0xfff));
  }
  const std::uint64_t after =
      sketch.MemoryBytes() + summary.MemoryBytes() + reservoir.MemoryBytes();
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace coopfs
