// QuantModel: the deployable 16-bit fixed-point model description.
//
// This is what RAD emits after training/compression/normalization and what
// ACE compiles onto the device (weights into FRAM, per-layer kernels). All
// scales are powers of two, applied with shifts — there is no floating
// point on the target (paper SSIII-A "Fixed-point quantization",
// B = A * 2^(b-1) with b = 16).
//
// Scale conventions:
//   * activation of layer l is stored as  q = a / 2^out_exp  in q15;
//   * weights are stored as              qw = w / 2^w_exp    in q15;
//   * biases are stored in the *output* scale (q15 at out_exp).
// The executor narrows each accumulator with a single arithmetic shift of
// 15 + out_exp - w_exp - in_exp bits (see qexec.cpp), which is exactly the
// overflow-aware computation ACE performs with the LEA SHIFT op.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fixed/q15.h"

namespace ehdnn::quant {

enum class QKind {
  kConv2D,
  kConv1D,
  kMaxPool2D,
  kReLU,
  kFlatten,
  kDense,
  kBcmDense,
};

const char* kind_name(QKind k);

struct QLayer {
  QKind kind = QKind::kReLU;
  std::vector<std::size_t> in_shape;
  std::vector<std::size_t> out_shape;

  // Weight layouts: Conv2D (F,C,kh,kw); Conv1D (F,C,k); Dense (out,in);
  // BcmDense (p,q,k) circulant first columns.
  std::vector<fx::q15_t> weights;
  std::vector<fx::q15_t> bias;  // output scale

  int w_exp = 0;    // true weight = qw * 2^w_exp
  int in_exp = 0;   // input activation scale exponent
  int out_exp = 0;  // output activation scale exponent

  // Dimensions (meaning depends on kind; unused fields stay 0).
  std::size_t in_ch = 0, out_ch = 0, kh = 0, kw = 0;
  std::size_t k = 0;          // Conv1D kernel or BCM block size
  std::size_t bp = 0, bq = 0; // BCM block-grid rows / cols

  std::vector<bool> shape_mask;  // Conv2D structured pruning (kh*kw)

  std::size_t live_positions() const {
    if (shape_mask.empty()) return kh * kw;
    std::size_t n = 0;
    for (bool b : shape_mask) n += b ? 1 : 0;
    return n;
  }

  std::size_t in_size() const;
  std::size_t out_size() const;
  std::size_t weight_words() const { return weights.size() + bias.size(); }
};

// --- deployment arithmetic contract ---------------------------------------
// The software reference executor (quant/qexec) and the on-device kernels
// (core/ace) must produce bit-identical results, so the points where wide
// accumulators are truncated are part of the model contract, not an
// implementation detail.

// Dense layers stream their rows in chunks of this many elements (bounded
// by the SRAM scratch buffers); each chunk is MAC'd exactly in 64 bits,
// then folded into a guarded 32-bit running accumulator.
inline constexpr std::size_t kDenseChunk = 512;

// Right-shift applied when folding a chunk sum into the 32-bit running
// accumulator: sized so that |in| full-scale Q30 products cannot overflow.
inline int dense_guard_shift(std::size_t in_features) {
  int g = 0;
  std::size_t cap = 1;
  while (cap < in_features) {
    cap <<= 1;
    ++g;
  }
  return g;
}

struct QuantModel {
  std::vector<QLayer> layers;
  int input_exp = 0;  // inputs are RAD-normalized to [-1, 1] -> 0
  std::string name;

  std::size_t weight_words() const;
  std::size_t weight_bytes() const { return weight_words() * sizeof(fx::q15_t); }

  // Largest activation buffer any layer reads or writes, in words — the
  // max(L_i) bound of ACE's circular-buffer convolution (paper Fig. 5).
  std::size_t max_activation_words() const;

  std::size_t output_size() const { return layers.back().out_size(); }
};

}  // namespace ehdnn::quant
