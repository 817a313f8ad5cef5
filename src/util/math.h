// Small integer/float math helpers shared across modules.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace ehdnn {

constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// floor(log2(n)) for n >= 1.
constexpr int ilog2(std::size_t n) {
  int k = 0;
  while (n > 1) {
    n >>= 1;
    ++k;
  }
  return k;
}

constexpr std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t div_ceil(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// std::fmod(t, m) for m > 0, bit for bit, for a caller whose t mostly
// moves forward: `k` carries the quotient of its previous call (start it
// at 0). For t >= 0 and k = trunc(t / m), t - k*m is the fmod result, which
// is exact and representable, so one fma computes it without rounding;
// an fma result outside [0, m) proves k was not the quotient (rounding is
// monotone and 0, m are representable). So k, then k + 1, are tried, and
// anything else (a jump, t < 0, NaN) takes std::fmod and re-seeds k.
inline double fmod_walk(double t, double m, double& k) {
  if (t >= 0.0) {
    double r = std::fma(-k, m, t);
    if (r >= 0.0 && r < m) return r;
    r = std::fma(-(k + 1.0), m, t);
    if (r >= 0.0 && r < m) {
      k += 1.0;
      return r;
    }
  }
  const double r = std::fmod(t, m);
  k = std::nearbyint((t - r) / m);
  return r;
}

}  // namespace ehdnn
