// Deterministic random number generation.
//
// Every stochastic component (probabilistic triggers, campaign fault-site
// randomisation, workload generators) draws from an explicitly seeded Rng so
// that a campaign run can be reproduced bit-for-bit from its seed — this is
// how the paper re-executes "the same two cases" for the Fig. 7 analysis.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"

namespace chaser {

/// std::mt19937_64, output for output, with its first state block computed
/// on demand. The standard engine expands the seed into all 312 state words
/// when it is constructed and twists all 312 at the first draw; a campaign
/// seeds a generator for every trial and draws a handful of numbers from
/// it, so most of that work was never used. Here the first block is seeded
/// and twisted a few words at a time, as far as the draws so far need (the
/// first draw costs 164 seeding steps and 8 twists instead of 624 steps);
/// later blocks are twisted whole, as the standard engine does.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (pos_ == ready_) Refill();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::size_t kFirstBlockStep = 8;

  /// Twist the next words of the state in place, as the standard's loop
  /// does. Word k reads words k and k+1 before they are twisted and word
  /// k+m (mod n): in the first block that is still a seed word for k < n-m,
  /// so seeding must reach it first.
  [[gnu::noinline]] void Refill() {
    if (pos_ == kN) pos_ = ready_ = 0;
    const std::size_t end =
        seeded_ < kN ? std::min(ready_ + kFirstBlockStep, kN) : kN;
    for (const std::size_t need = std::min(end + kM, kN); seeded_ < need;
         ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ull * (prev ^ (prev >> 62)) + seeded_;
    }
    std::size_t k = ready_;
    for (; k < std::min(end, kN - kM); ++k) x_[k] = x_[k + kM] ^ Mix(k, k + 1);
    for (; k < std::min(end, kN - 1); ++k) x_[k] = x_[k + kM - kN] ^ Mix(k, k + 1);
    if (k < end) x_[k] = x_[kM - 1] ^ Mix(kN - 1, 0);
    ready_ = end;
  }
  result_type Mix(std::size_t k, std::size_t next) const {
    const result_type y = (x_[k] & ~result_type{0x7fffffff}) |
                          (x_[next] & result_type{0x7fffffff});
    return (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ull : 0);
  }

  std::array<result_type, kN> x_{};
  std::size_t seeded_ = 1;
  std::size_t ready_ = 0;  // words [0, ready_) of this block are twisted
  std::size_t pos_ = 0;    // next output
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t UniformU64(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Throws ConfigError if n == 0 — the
  /// alternative is an underflow to UniformU64(0, SIZE_MAX) and a garbage
  /// index that the caller would use to address an empty container.
  std::size_t Index(std::size_t n) {
    if (n == 0) throw ConfigError("Rng::Index: n must be > 0 (empty range)");
    return static_cast<std::size_t>(UniformU64(0, n - 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Pick a uniformly random element from a non-empty vector.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Index(v.size())];
  }

  /// Derive a child seed (for per-run or per-rank sub-generators).
  std::uint64_t Fork() { return engine_(); }

 private:
  Mt19937_64 engine_;
};

}  // namespace chaser
