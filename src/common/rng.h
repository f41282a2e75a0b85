// Deterministic pseudo-random number generation.
//
// Every stochastic decision in coopfs (workload generation, N-Chance random
// peer selection) draws from an explicitly seeded generator, so a fixed seed
// reproduces a simulation bit-for-bit. We implement SplitMix64 (seeding) and
// xoshiro256** (bulk generation) rather than using <random> engines because
// their output is specified exactly and stable across standard libraries.
#ifndef COOPFS_SRC_COMMON_RNG_H_
#define COOPFS_SRC_COMMON_RNG_H_

#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace coopfs {

// SplitMix64: tiny generator used to expand a 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return MixHash64(state_);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) {
      word = sm.Next();
    }
  }

  // Uniform over the full 64-bit range.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  // Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t NextBelow(std::uint64_t bound) {
    assert(bound > 0);
    std::uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(NextBelow(span));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    // 53 high-quality bits -> double mantissa.
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with probability p of returning true.
  bool NextBool(double p) { return NextDouble() < p; }

  // Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean) {
    assert(mean > 0.0);
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

  // Geometric-ish: number of successes before a failure with prob. `p_stop`
  // of stopping per step; used for run lengths. Capped to keep runs bounded.
  std::uint64_t NextRunLength(double p_stop, std::uint64_t cap) {
    std::uint64_t n = 1;
    while (n < cap && !NextBool(p_stop)) {
      ++n;
    }
    return n;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

// Draws from a Zipf(s) distribution over ranks [0, n). Precomputes the CDF
// once so each sample is a binary search: O(log n).
//
// Zipf popularity is the standard model for file access skew; the Sprite and
// Auspex workload generators use it to pick which file a reference touches.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    assert(n > 0);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& v : cdf_) {
      v /= sum;
    }
  }

  std::size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    // First index with cdf >= u.
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_RNG_H_
