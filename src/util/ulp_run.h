// Exact fast-forward of repeated floating-point addition.
//
// The serial loop
//
//   for (r = 0; r < k; ++r)
//     for (i = 0; i < m; ++i) x = x + d[i];
//
// rounds every sum to nearest-even. While x and every sum stay inside
// one binade of x, the representable values there are the multiples of
// one ulp, so fl(x + d) = x + q(d): q(d) is d rounded to a multiple of
// that ulp, and it does not depend on x. The exception is a d that sits
// exactly on a half-ulp tie, where nearest-even depends on x's parity.
// In integer ulp units one repetition then moves x by exactly sum(q(d)),
// and k repetitions by k times that. So the loop collapses to integer
// arithmetic and reproduces it bit for bit.
//
// UlpRun is that closed form for one binade. A caller whose chain must
// leave the binade takes serial steps across the boundary and starts a
// new UlpRun on the far side. Recharge, idle parking and charge-run
// settlement (power/capacitor.h) all fast-forward through it; the serial
// loop above is its oracle (util_test).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ehdnn {

class UlpRun {
 public:
  static constexpr std::size_t kMaxAddends = 8;
  static constexpr long long kUnbounded = std::numeric_limits<long long>::max();

  UlpRun() = default;  // not exact
  // The pattern d[0, m), 1 <= m <= kMaxAddends, added to x over and over.
  UlpRun(double x, const double* d, std::size_t m) {
    const int biased = biased_exponent(x);
    if (biased < 53 || biased > 2046 || m == 0 || m > kMaxAddends) return;
    biased_ = biased;
    ulp_ = std::bit_cast<double>(static_cast<std::uint64_t>(biased - 52) << 52);
    inv_ulp_ = std::bit_cast<double>(static_cast<std::uint64_t>(2098 - biased) << 52);
    x_ = static_cast<long long>(x * inv_ulp_);  // in [2^52, 2^53)
    bool nonneg = true;
    long long sum = 0, pmin = std::numeric_limits<long long>::max(), pmax = -pmin;
    for (std::size_t i = 0; i < m; ++i) {
      const double r = std::abs(d[i]) * inv_ulp_;
      if (!(r < 0x1p52)) return;  // too large for the binade, or NaN
      const auto whole = static_cast<long long>(r);
      const double frac = r - static_cast<double>(whole);  // exact
      if (frac == 0.5) return;  // a tie: rounding depends on parity
      long long q = whole + (frac > 0.5 ? 1 : 0);
      if (d[i] < 0.0) {
        q = -q;
        nonneg = false;
      }
      sum += q;
      pmin = std::min(pmin, sum);
      pmax = std::max(pmax, sum);
    }
    sum_ = sum;
    pmin_ = pmin;
    pmax_ = pmax;
    // A sum v on the grid is the rounded one when its exact value lies in
    // the binade. Below 2^52 ulps the grid halves, so v = 2^52 is safe
    // only when it was reached from above by adding d >= 0.
    lo_bin_ = nonneg ? 0x1p52 : 0x1p52 + 1.0;
    exact_ = true;
  }

  // Restarts the chain from a new x in the same binade, with the same
  // addends; false (and unchanged) when x is in another binade or the
  // closed form did not apply.
  bool rebase(double x) {
    if (!exact_ || biased_exponent(x) != biased_) return false;
    x_ = static_cast<long long>(x * inv_ulp_);
    return true;
  }

  // False when the closed form does not apply: x is not a positive normal
  // number, or an addend is a half-ulp tie or not finite. The caller
  // then takes serial steps.
  bool exact() const { return exact_; }

  // The largest k <= limit for which every sum the serial loop forms in
  // k repetitions lies in x's binade and in [lo, hi). kUnbounded when
  // nothing bounds it (no addend moves x); 0 when the closed form does
  // not apply.
  long long reps_within(double lo, double hi, long long limit = kUnbounded) const {
    if (!exact_ || limit <= 0) return 0;
    // At and above 2^52 ulps every double is an integer, so these scaled
    // bounds are exact integers wherever they can bind.
    const double l = std::max(lo * inv_ulp_, lo_bin_);
    const double h = std::min(hi * inv_ulp_, 0x1p53) - 1.0;
    if (!(l <= h)) return 0;
    const auto lo_u = static_cast<long long>(l);
    const auto hi_u = static_cast<long long>(h);
    if (x_ + pmin_ < lo_u || x_ + pmax_ > hi_u) return 0;
    // Repetition r forms x + r*sum + (a prefix sum): monotone in r, so
    // only the last repetition can break the bound the sum moves toward,
    // and the first k reps fit while (k - 1) * |sum| <= room.
    if (sum_ == 0) return limit;
    const long long step = sum_ > 0 ? sum_ : -sum_;
    const long long room = sum_ > 0 ? hi_u - x_ - pmax_ : x_ + pmin_ - lo_u;
    long long span = 0;
    if (!__builtin_mul_overflow(limit - 1, step, &span) && span <= room) return limit;
    return room / step + 1;
  }

  // x after k repetitions, for k <= reps_within(...). Exact: an integer
  // below 2^53 times a power of two.
  double after(long long k) const { return static_cast<double>(x_ + k * sum_) * ulp_; }

 private:
  // The biased exponent, with the sign bit above it: a negative x, a
  // zero, a subnormal, an infinity or a NaN falls outside [53, 2046].
  // Inside it, x's ulp and its inverse are both normal powers of two, so
  // scaling by them is exact.
  static int biased_exponent(double x) {
    return static_cast<int>(std::bit_cast<std::uint64_t>(x) >> 52);
  }

  int biased_ = 0;
  double ulp_ = 0.0, inv_ulp_ = 0.0;
  double lo_bin_ = 0.0;
  long long x_ = 0;     // x in ulps
  long long sum_ = 0;   // one repetition's move, in ulps
  long long pmin_ = 0, pmax_ = 0;  // the extreme prefix sums
  bool exact_ = false;
};

}  // namespace ehdnn
