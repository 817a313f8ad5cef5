#include "dsp/circulant.h"

#include <complex>

#include "util/check.h"
#include "util/math.h"

namespace ehdnn::dsp {

void circ_conv_ref(std::span<const double> c, std::span<const double> x,
                   std::span<double> y) {
  const std::size_t k = c.size();
  check(x.size() == k, "circ_conv_ref: size mismatch");
  check(y.size() == k, "circ_conv_ref: output size mismatch");
  for (std::size_t i = 0; i < k; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      acc += c[(i + k - j) % k] * x[j];
    }
    y[i] = acc;
  }
}

std::vector<double> circ_conv_ref(std::span<const double> c, std::span<const double> x) {
  std::vector<double> y(c.size(), 0.0);
  circ_conv_ref(c, x, y);
  return y;
}

void circulant_matvec(std::span<const double> first_col, std::span<const double> x,
                      CirculantScratch& scratch, std::span<double> y) {
  const std::size_t k = first_col.size();
  check(x.size() == k, "circulant_matvec: size mismatch");
  check(y.size() == k, "circulant_matvec: output size mismatch");
  check(is_pow2(k), "circulant_matvec: block size must be a power of two");
  if (scratch.fc.size() < k) scratch.fc.resize(k);
  if (scratch.fx.size() < k) scratch.fx.resize(k);
  const std::span<std::complex<double>> fc(scratch.fc.data(), k);
  const std::span<std::complex<double>> fx_(scratch.fx.data(), k);
  for (std::size_t i = 0; i < k; ++i) {
    fc[i] = first_col[i];
    fx_[i] = x[i];
  }
  fft(fc);
  fft(fx_);
  for (std::size_t i = 0; i < k; ++i) fc[i] *= fx_[i];
  ifft(fc);
  for (std::size_t i = 0; i < k; ++i) y[i] = fc[i].real();
}

std::vector<double> circulant_matvec(std::span<const double> first_col,
                                     std::span<const double> x) {
  CirculantScratch scratch;
  std::vector<double> y(first_col.size());
  circulant_matvec(first_col, x, scratch, y);
  return y;
}

GuardShifts product_guard(int max_w, int max_x) {
  GuardShifts g;
  auto bound = [](long long a, long long b) { return (2 * a * b) >> 15; };
  // Conservative magnitude after a rounding right-shift: (m >> 1) + 1.
  while (bound(max_w, max_x) > fx::kQ15Max) {
    if (max_w >= max_x) {
      max_w = (max_w >> 1) + 1;
      ++g.w;
    } else {
      max_x = (max_x >> 1) + 1;
      ++g.x;
    }
  }
  return g;
}

namespace {

int max_component(std::span<const fx::cq15> v) {
  int m = 0;
  for (const auto& c : v) {
    m = std::max({m, std::abs(static_cast<int>(c.re)), std::abs(static_cast<int>(c.im))});
  }
  return m;
}

void shift_buffer(std::span<fx::cq15> v, int right_shift) {
  for (auto& c : v) {
    c.re = fx::shift_sat(c.re, -right_shift);
    c.im = fx::shift_sat(c.im, -right_shift);
  }
}

}  // namespace

int circulant_matvec_q15(std::span<const fx::q15_t> first_col, std::span<const fx::q15_t> x,
                         FftScaling scaling, CirculantScratchQ15& scratch,
                         std::span<fx::q15_t> out, fx::SatStats* stats) {
  const std::size_t k = first_col.size();
  check(x.size() == k, "circulant_matvec_q15: size mismatch");
  check(out.size() == k, "circulant_matvec_q15: output size mismatch");
  check(is_pow2(k), "circulant_matvec_q15: block size must be a power of two");
  if (scratch.cw.size() < k) scratch.cw.resize(k);
  if (scratch.cx.size() < k) scratch.cx.resize(k);
  const std::span<fx::cq15> cw(scratch.cw.data(), k);
  const std::span<fx::cq15> cx(scratch.cx.data(), k);

  // COMPLEX: interleave with zero imaginary parts.
  for (std::size_t i = 0; i < k; ++i) {
    cw[i] = {first_col[i], 0};
    cx[i] = {x[i], 0};
  }

  // FFT both operands; exponents record the implicit SCALE-DOWN.
  int exponent = 0;
  exponent += fft_q15(cw, scaling, stats);
  exponent += fft_q15(cx, scaling, stats);

  // Guard the product against complex-multiply overflow (BFP mode; the
  // fixed-scale path is the paper's literal Algorithm 1, where any
  // saturation is reported through `stats` instead).
  if (scaling == FftScaling::kBlockFloat) {
    const GuardShifts g = product_guard(max_component(cw), max_component(cx));
    if (g.w > 0) shift_buffer(cw, g.w);
    if (g.x > 0) shift_buffer(cx, g.x);
    exponent += g.w + g.x;
  }

  // MPY: element-wise complex product.
  for (std::size_t i = 0; i < k; ++i) cw[i] = fx::cmul(cw[i], cx[i], stats);

  // IFFT and REAL.
  exponent += ifft_q15(cw, scaling, stats);

  for (std::size_t i = 0; i < k; ++i) out[i] = cw[i].re;
  return exponent;
}

ScaledVecQ15 circulant_matvec_q15(std::span<const fx::q15_t> first_col,
                                  std::span<const fx::q15_t> x, FftScaling scaling,
                                  fx::SatStats* stats) {
  CirculantScratchQ15 scratch;
  ScaledVecQ15 out;
  out.data.resize(first_col.size());
  out.exponent = circulant_matvec_q15(first_col, x, scaling, scratch, out.data, stats);
  return out;
}

std::vector<fx::q15_t> narrow(const ScaledVecQ15& v, fx::SatStats* stats) {
  std::vector<fx::q15_t> out(v.data.size());
  for (std::size_t i = 0; i < v.data.size(); ++i) {
    out[i] = fx::shift_sat(v.data[i], v.exponent, stats);
  }
  return out;
}

}  // namespace ehdnn::dsp
