/// \file rng.hpp
/// \brief Deterministic, fast pseudo-random number generation.
///
/// The whole library is seed-deterministic: every randomized component takes
/// an explicit `Rng` (or a seed) so that experiments replay bit-identically.
/// The generator is xoshiro256** seeded via splitmix64 — fast, high quality,
/// and independent of the standard library's unspecified distributions
/// (libstdc++/libc++ produce different streams from `std::uniform_*`; we do
/// not use them).

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace urn {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mix two 64-bit values into one; used to derive per-entity sub-seeds
/// (e.g. per-node, per-trial) from a master seed without correlation.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a,
                                               std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** 1.0 — public-domain algorithm by Blackman & Vigna.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also
/// drive `std::shuffle` etc. where stream stability does not matter.
///
/// The object is exactly the four state words (32 bytes): engines keep one
/// stream per node, so every byte here is paid n times.  Normal deviates
/// come in pairs from `normal_pair`, which caches nothing in the stream.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  /// \pre bound > 0
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    URN_DCHECK(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the closed range [lo, hi].
  /// \pre lo <= hi
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) {
    URN_DCHECK(lo <= hi);
    const auto span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard exponential variate with the given rate.
  /// \pre rate > 0
  [[nodiscard]] double exponential(double rate);

  /// Fisher–Yates shuffle with this generator's stable stream.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A new generator whose stream is decorrelated from this one.
  [[nodiscard]] Rng split() { return Rng(mix_seed((*this)(), (*this)())); }

  /// Complete generator state: restoring it replays the stream
  /// draw-for-draw.
  struct Snapshot {
    std::array<std::uint64_t, 4> state{};
  };

  [[nodiscard]] Snapshot snapshot() const { return Snapshot{state_}; }

  void restore(const Snapshot& s) { state_ = s.state; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

static_assert(sizeof(Rng) == 32, "a per-node stream is its four words");

/// Two independent standard normal variates from one Marsaglia polar
/// draw.  Consuming both in order reproduces the stream of a cached-spare
/// `normal()` called twice in a row.
[[nodiscard]] std::pair<double, double> normal_pair(Rng& rng);

}  // namespace urn
