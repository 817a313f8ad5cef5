#include "dsp/fft.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>

#include "util/check.h"
#include "util/math.h"

namespace ehdnn::dsp {

namespace {

// Bit-reversal permutation shared by all in-place variants.
template <typename T>
void bit_reverse(std::span<T> data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

}  // namespace

void fft(std::span<std::complex<double>> data) {
  const std::size_t n = data.size();
  check(is_pow2(n), "fft size must be a power of two");
  bit_reverse(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const auto u = data[i + k];
        const auto v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void ifft(std::span<std::complex<double>> data) {
  for (auto& x : data) x = std::conj(x);
  fft(data);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x = std::conj(x) * inv_n;
}

std::vector<std::complex<double>> dft_naive(std::span<const std::complex<double>> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      acc += x[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

namespace {

std::unique_ptr<const FftPlan> build_plan(std::size_t n) {
  auto plan = std::make_unique<FftPlan>();
  plan->n = n;
  plan->twiddles.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    plan->twiddles[k] = {fx::to_q15(std::cos(ang)), fx::to_q15(std::sin(ang))};
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      plan->swaps.emplace_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
    }
  }
  return plan;
}

}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  check(is_pow2(n), "fft_plan size must be a power of two");
  // unique_ptr indirection keeps returned references stable no matter
  // what the cache container does; the mutex covers concurrent
  // first-touch builds of the same (or different) sizes.
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<const FftPlan>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[n];
  if (slot == nullptr) slot = build_plan(n);
  return *slot;
}

const std::vector<fx::cq15>& twiddles_q15(std::size_t n) { return fft_plan(n).twiddles; }

namespace {

// One radix-2 DIT stage pass over the whole buffer with the given
// pre-shift applied to both butterfly inputs (0 = none, 1 = halve).
void fft_stage(std::span<fx::cq15> data, std::size_t len, int pre_shift,
               const std::vector<fx::cq15>& tw, fx::SatStats* stats) {
  const std::size_t n = data.size();
  const std::size_t tw_step = n / len;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      fx::cq15 u = data[i + k];
      fx::cq15 v = fx::cmul(data[i + k + len / 2], tw[k * tw_step], stats);
      if (pre_shift) {
        u = {fx::shift_sat(u.re, -pre_shift), fx::shift_sat(u.im, -pre_shift)};
        v = {fx::shift_sat(v.re, -pre_shift), fx::shift_sat(v.im, -pre_shift)};
      }
      data[i + k] = fx::cadd_sat(u, v, stats);
      data[i + k + len / 2] = fx::csub_sat(u, v, stats);
    }
  }
}

// True if the next butterfly could saturate. The twiddled half of a
// butterfly bounds its *components* by the input's complex magnitude
// |d| <= sqrt(2) * max_component, so components must stay below
// 0.5/sqrt(2) (11585 LSB) for u +- W*v to stay inside q15:
// |u| + |W*v| <= 11585 + sqrt(2)*11585 < 32768.
bool needs_guard_shift(std::span<const fx::cq15> data) {
  constexpr fx::q15_t kGuard = 11585;  // floor(0.5/sqrt(2) * 2^15)
  for (const auto& c : data) {
    if (c.re >= kGuard || c.re <= -kGuard || c.im >= kGuard || c.im <= -kGuard) return true;
  }
  return false;
}

}  // namespace

int fft_q15(std::span<fx::cq15> data, FftScaling scaling, fx::SatStats* stats) {
  const std::size_t n = data.size();
  check(is_pow2(n), "fft_q15 size must be a power of two");
  if (n == 1) return 0;
  const FftPlan& plan = fft_plan(n);
  const auto& tw = plan.twiddles;
  for (const auto& [i, j] : plan.swaps) std::swap(data[i], data[j]);
  int exponent = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    int pre_shift = 0;
    if (scaling == FftScaling::kFixedScale) {
      pre_shift = 1;
    } else if (scaling == FftScaling::kBlockFloat && needs_guard_shift(data)) {
      pre_shift = 1;
    }
    exponent += pre_shift;
    fft_stage(data, len, pre_shift, tw, stats);
  }
  return exponent;
}

int ifft_q15(std::span<fx::cq15> data, FftScaling scaling, fx::SatStats* stats) {
  // IDFT(X) = conj(DFT(conj(X))) / N; the /N combines with the forward
  // transform's scaling exponent.
  for (auto& c : data) c = fx::conj(c);
  const int fwd = fft_q15(data, scaling, stats);
  for (auto& c : data) c = fx::conj(c);
  return fwd - ilog2(data.size());
}

}  // namespace ehdnn::dsp
