#include "quant/qexec.h"

#include <cmath>

#include "dsp/circulant.h"
#include "fixed/vec.h"
#include "quant/quantize.h"
#include "util/check.h"
#include "util/math.h"

namespace ehdnn::quant {

namespace {

using fx::q15_t;

// Narrowing shift for dot-product accumulators: raw accumulator is a sum
// of Q30 products of (x / 2^in_exp) and (w / 2^w_exp); the stored output is
// y / 2^out_exp in q15 (Q15). See qmodel.h for the derivation.
int acc_rshift(const QLayer& l) { return 15 + l.out_exp - l.w_exp - l.in_exp; }

std::vector<q15_t> run_conv2d(const QLayer& l, std::span<const q15_t> x,
                              const QExecOptions& opts) {
  const std::size_t ih = l.in_shape[1], iw = l.in_shape[2];
  const std::size_t oh = l.out_shape[1], ow = l.out_shape[2];
  std::vector<q15_t> y(l.out_size());
  const int rshift = acc_rshift(l);
  for (std::size_t f = 0; f < l.out_ch; ++f) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        std::int64_t acc = 0;
        for (std::size_t c = 0; c < l.in_ch; ++c) {
          for (std::size_t r = 0; r < l.kh; ++r) {
            for (std::size_t s = 0; s < l.kw; ++s) {
              if (!l.shape_mask.empty() && !l.shape_mask[r * l.kw + s]) continue;
              const q15_t xv = x[(c * ih + i + r) * iw + j + s];
              const q15_t wv = l.weights[((f * l.in_ch + c) * l.kh + r) * l.kw + s];
              acc += fx::mul_q30(xv, wv);
            }
          }
        }
        q15_t v = fx::narrow_q30(acc, rshift, opts.stats);
        if (!l.bias.empty()) v = fx::add_sat(v, l.bias[f], opts.stats);
        y[(f * oh + i) * ow + j] = v;
      }
    }
  }
  return y;
}

std::vector<q15_t> run_conv1d(const QLayer& l, std::span<const q15_t> x,
                              const QExecOptions& opts) {
  const std::size_t il = l.in_shape[1];
  const std::size_t ol = l.out_shape[1];
  std::vector<q15_t> y(l.out_size());
  const int rshift = acc_rshift(l);
  for (std::size_t f = 0; f < l.out_ch; ++f) {
    for (std::size_t i = 0; i < ol; ++i) {
      std::int64_t acc = 0;
      for (std::size_t c = 0; c < l.in_ch; ++c) {
        for (std::size_t t = 0; t < l.k; ++t) {
          acc += fx::mul_q30(x[c * il + i + t], l.weights[(f * l.in_ch + c) * l.k + t]);
        }
      }
      q15_t v = fx::narrow_q30(acc, rshift, opts.stats);
      if (!l.bias.empty()) v = fx::add_sat(v, l.bias[f], opts.stats);
      y[f * ol + i] = v;
    }
  }
  return y;
}

std::vector<q15_t> run_dense(const QLayer& l, std::span<const q15_t> x,
                             const QExecOptions& opts) {
  // Chunked, guarded accumulation — the deployment contract (see
  // qmodel.h): exact 64-bit within a chunk, truncating fold into a 32-bit
  // running accumulator, so the on-device kernel matches bit for bit.
  std::vector<q15_t> y(l.out_ch);
  const int guard = dense_guard_shift(l.in_ch);
  const int rshift = acc_rshift(l) - guard;
  for (std::size_t o = 0; o < l.out_ch; ++o) {
    const q15_t* row = &l.weights[o * l.in_ch];
    std::int64_t acc32 = 0;  // value fits 32 bits by guard construction
    for (std::size_t base = 0; base < l.in_ch; base += kDenseChunk) {
      const std::size_t len = std::min(kDenseChunk, l.in_ch - base);
      std::int64_t chunk = 0;
      for (std::size_t i = 0; i < len; ++i) chunk += fx::mul_q30(x[base + i], row[base + i]);
      acc32 += chunk >> guard;
    }
    q15_t v = fx::narrow_q30(acc32, rshift, opts.stats);
    if (!l.bias.empty()) v = fx::add_sat(v, l.bias[o], opts.stats);
    y[o] = v;
  }
  return y;
}

std::vector<q15_t> run_bcm(const QLayer& l, std::span<const q15_t> x, const QExecOptions& opts) {
  const std::size_t k = l.k;
  const int lg = ilog2(k);
  // Disabling overflow awareness runs the FFTs unscaled: the exponent
  // bookkeeping still balances, but butterflies saturate and the result is
  // numerically wrong — the failure mode Algorithm 1 exists to prevent.
  const dsp::FftScaling scaling =
      opts.overflow_aware ? opts.fft_scaling : dsp::FftScaling::kNone;
  const std::size_t out = l.out_size();
  std::vector<q15_t> y(out);

  // Zero-padded input blocks.
  std::vector<q15_t> xpad(l.bq * k, 0);
  std::copy(x.begin(), x.end(), xpad.begin());

  // Per output block row: accumulate block circular convolutions in a wide
  // accumulator held in units of 2^-lg q15 LSBs, which covers the most
  // negative exponent the BFP inverse FFT can produce (see qmodel.h).
  std::vector<std::int64_t> acc(k);
  dsp::CirculantScratchQ15 scratch;
  std::vector<q15_t> blk(k);
  for (std::size_t bi = 0; bi < l.bp; ++bi) {
    std::fill(acc.begin(), acc.end(), std::int64_t{0});
    for (std::size_t bj = 0; bj < l.bq; ++bj) {
      std::span<const q15_t> col(&l.weights[(bi * l.bq + bj) * k], k);
      std::span<const q15_t> xblk(&xpad[bj * k], k);
      const int exponent = dsp::circulant_matvec_q15(col, xblk, scaling, scratch, blk,
                                                     opts.stats);
      const int shift = exponent + lg;
      check(shift >= 0, "run_bcm: unexpected negative aligned exponent");
      for (std::size_t t = 0; t < k; ++t) {
        acc[t] += static_cast<std::int64_t>(blk[t]) << shift;
      }
    }
    // SCALE-UP + narrowing to the output scale. acc is in units of
    // 2^-15 * 2^-lg (q15 LSBs shifted by lg); the true value is
    // acc * 2^(w_exp + in_exp); the stored output is value / 2^out_exp.
    const int rshift = lg + l.out_exp - l.w_exp - l.in_exp;
    for (std::size_t t = 0; t < k; ++t) {
      q15_t v = fx::narrow_q30(acc[t], rshift, opts.stats);
      const std::size_t o = bi * k + t;
      if (!l.bias.empty()) v = fx::add_sat(v, l.bias[o], opts.stats);
      y[o] = v;
    }
  }
  return y;
}

std::vector<q15_t> run_maxpool2(const QLayer& l, std::span<const q15_t> x) {
  const std::size_t c = l.in_shape[0], ih = l.in_shape[1], iw = l.in_shape[2];
  const std::size_t oh = ih / 2, ow = iw / 2;
  std::vector<q15_t> y(l.out_size());
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        q15_t m = fx::kQ15Min;
        for (std::size_t di = 0; di < 2; ++di) {
          for (std::size_t dj = 0; dj < 2; ++dj) {
            m = std::max(m, x[(ch * ih + 2 * i + di) * iw + 2 * j + dj]);
          }
        }
        y[(ch * oh + i) * ow + j] = m;
      }
    }
  }
  return y;
}

std::vector<q15_t> run_relu(std::span<const q15_t> x) {
  std::vector<q15_t> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::max<q15_t>(x[i], 0);
  return y;
}

}  // namespace

std::vector<q15_t> qforward_layer(const QLayer& layer, std::span<const q15_t> input,
                                  const QExecOptions& opts) {
  check(input.size() == layer.in_size(), "qforward_layer: input size mismatch");
  switch (layer.kind) {
    case QKind::kConv2D: return run_conv2d(layer, input, opts);
    case QKind::kConv1D: return run_conv1d(layer, input, opts);
    case QKind::kDense: return run_dense(layer, input, opts);
    case QKind::kBcmDense: return run_bcm(layer, input, opts);
    case QKind::kMaxPool2D: return run_maxpool2(layer, input);
    case QKind::kReLU: return run_relu(input);
    case QKind::kFlatten: return std::vector<q15_t>(input.begin(), input.end());
  }
  fail("qforward_layer: unknown kind");
}

std::vector<q15_t> qforward(const QuantModel& qm, std::span<const q15_t> input,
                            const QExecOptions& opts) {
  std::vector<q15_t> a(input.begin(), input.end());
  for (const auto& l : qm.layers) a = qforward_layer(l, a, opts);
  return a;
}

std::vector<float> qpredict(const QuantModel& qm, const nn::Tensor& x,
                            const QExecOptions& opts) {
  auto qin = quantize_input(qm, x, opts.stats);
  auto qout = qforward(qm, qin, opts);
  const double scale = std::exp2(qm.layers.back().out_exp);
  std::vector<float> out(qout.size());
  for (std::size_t i = 0; i < qout.size(); ++i) {
    out[i] = static_cast<float>(fx::to_double(qout[i]) * scale);
  }
  return out;
}

}  // namespace ehdnn::quant
