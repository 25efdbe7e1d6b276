// Deterministic pseudo-random number generation for the dlb library.
//
// All randomness in the library flows through Rng, a xoshiro256** engine
// seeded via SplitMix64. We avoid std::mt19937 and distribution objects
// because their outputs differ across standard library implementations;
// experiments must be bit-reproducible everywhere.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/assertions.hpp"

namespace dlb {

/// SplitMix64 step: used for seeding and as a cheap standalone mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, implementation-independent PRNG.
///
/// Satisfies UniformRandomBitGenerator, but prefer the member helpers
/// (uniform_u64, uniform_int, uniform_real, bernoulli) which have
/// platform-independent output, unlike std::uniform_int_distribution.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Raw 64 uniform bits.
  std::uint64_t next() noexcept {
    const std::uint64_t result = scramble(state_[1]);
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint64_t uniform_u64(std::uint64_t bound) {
    DLB_REQUIRE(bound > 0, "uniform_u64 bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in the closed range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    DLB_REQUIRE(lo <= hi, "uniform_int range is empty");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_u64(span));
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform_real() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform_real() < p; }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    const auto n = c.size();
    if (n < 2) return;
    for (std::size_t i = n - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// Derives an independent child generator (for per-node streams).
  Rng split() noexcept {
    std::uint64_t s = next();
    return Rng(splitmix64(s));
  }

  /// The four xoshiro256** state words, for snapshot/restore of
  /// sequential streams (counter-based streams need no state — their key
  /// is (seed, node, round)). A restored generator continues the exact
  /// sequence the captured one would have produced.
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    state_ = s;
  }

  /// The ** output scrambler: next() returns scramble(state word 1).
  /// Exposed so batched counter-stream kernels can predict a fresh
  /// generator's first outputs from its seeding words without building
  /// it (PoissonWorkload::nonzero_deltas).
  static constexpr std::uint64_t scramble(std::uint64_t s1) noexcept {
    return rotl(s1 * 5, 7) * 9;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dlb
