// Deterministic random number generation.
//
// Everything in ehdnn that needs randomness (synthetic datasets, weight
// init, failure schedules in property tests) takes an explicit Rng so runs
// are reproducible from a single seed. The generator is xoshiro256**
// seeded via SplitMix64, which is fast and has no observable bias for our
// purposes (we are not doing cryptography).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace ehdnn {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
    has_gauss_ = false;
  }

  // Raw 64 uniform bits (xoshiro256**).
  std::uint64_t next_u64() {
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

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) { return next_u64() % n; }

  // Uniform integer in [lo, hi] inclusive.
  int range(int lo, int hi) {
    return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool chance(double p) { return uniform() < p; }

  // Standard normal via Marsaglia polar method (cached pair).
  double gauss() {
    if (has_gauss_) {
      has_gauss_ = false;
      return cached_gauss_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    cached_gauss_ = v * m;
    has_gauss_ = true;
    return u * m;
  }

  double gauss(double mean, double stddev) { return mean + stddev * gauss(); }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4] = {};
  bool has_gauss_ = false;
  double cached_gauss_ = 0.0;
};

}  // namespace ehdnn
