// Deterministic pseudo-random number generation for reproducible simulation.
//
// Every randomized component in this library (graph generators, randomized
// dominating-set sampling in Algorithm 3, ID shuffles) takes an explicit
// seed, so that each test and bench run is bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace dapsp {

// SplitMix64 finalizer: a full-avalanche 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// SplitMix64: tiny, fast, statistically solid generator used to seed and to
// drive all randomness in the library. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() noexcept {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

  // Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniform01() noexcept;

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  // The full generator state (SplitMix64 is its counter). Re-seeding a new
  // Rng with this value resumes the exact stream — the serialization hook
  // used by checkpointable components (graph/delta.h plans).
  std::uint64_t state() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

// A keyed stream: one mix64 round per key component, with distinct odd
// multipliers, so streams for neighboring (a, b) keys share no affine
// structure (the fault injector's per-(node, round) streams).
inline Rng keyed_rng(std::uint64_t seed, std::uint64_t a,
                     std::uint64_t b) noexcept {
  const std::uint64_t z = mix64(seed ^ (0x9e3779b97f4a7c15ULL * (a + 1)));
  return Rng(mix64(z ^ (0xd1342543de82ef95ULL * (b + 1))));
}

// In-place Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng.below(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace dapsp
