// Sample statistics for the benchmark: nearest-rank percentiles and the
// tail percentile rule (the highest rung of a fixed ladder that still has at
// least kMinBeyond samples strictly above its rank).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

namespace perfbench {

// Index of the q-quantile in a sorted sample of size n under the
// nearest-rank rule: the smallest rank r with r/n >= q. Requires n > 0.
inline std::size_t rank_index(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  const std::size_t rank = r < 1.0 ? 1 : static_cast<std::size_t>(r);
  return std::min(rank, n) - 1;
}

// Nearest-rank percentile of an unsorted sample (0 when empty).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t i = rank_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// The percentiles a tail may be reported at. The ladder stops at p99: with
// millions of microsecond reads a higher rung would sit on host preemptions
// rather than on the code's own tail.
inline constexpr std::array<double, 5> kTailLadder = {0.5, 0.75, 0.9, 0.95,
                                                      0.99};
inline constexpr std::size_t kMinBeyond = 10;

struct Tail {
  double q = 0.0;           // the percentile reported
  double value = 0.0;       // its nearest-rank value
  std::size_t beyond = 0;   // samples strictly above its rank
};

// The highest ladder percentile with at least kMinBeyond samples beyond
// it; nullopt when even the median has fewer (fewer than 20 samples).
inline std::optional<Tail> tail_percentile(std::vector<double> v) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  std::optional<Tail> best;
  for (const double q : kTailLadder) {
    const std::size_t i = rank_index(v.size(), q);
    const std::size_t beyond = v.size() - 1 - i;
    if (beyond < kMinBeyond) break;
    best = Tail{q, v[i], beyond};
  }
  return best;
}

// A uniform fixed-size sample of a stream (Algorithm R): memory stays
// constant however many ops a run completes.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = std::size_t{1} << 20,
                     std::uint64_t seed = 1)
      : capacity_(capacity), state_(seed) {}

  void add(float x) {
    if (samples_.size() < capacity_) {
      samples_.push_back(x);
    } else if (const std::uint64_t j = next() % (seen_ + 1); j < capacity_) {
      samples_[j] = x;
    }
    ++seen_;
  }
  std::uint64_t seen() const { return seen_; }
  const std::vector<float>& samples() const { return samples_; }

 private:
  std::uint64_t next() {  // SplitMix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<float> samples_;
};

}  // namespace perfbench
