#include "nn/conv.h"

#include <cmath>

namespace ehdnn::nn {

namespace {

// One conv forward's geometry: filters of in_ch x kh x kw weights over
// inputs of in_ch x in_h x in_w values. A kernel position (r, s) whose
// `live` bit is false (Conv2D's shape mask) is skipped; nullptr: all live.
struct ConvShape {
  std::size_t in_ch, kh, kw, in_h, in_w;
  const std::vector<bool>* live;
};

// y[0, B) for B adjacent outputs of one row, in one pass over the filter
// `w` with `x` at the first output's window. Each output keeps its own
// float sum, started at `init` and accumulated in tap order (channel,
// kernel row, column) exactly as a one-output loop would, so the result
// is bit-identical to B single-output passes; the B sums are
// independent, so their adds overlap (as Dense's rows do).
template <std::size_t B>
void conv_outputs(const ConvShape& g, const float* w, const float* x, float init, float* y) {
  float acc[B];
  for (std::size_t k = 0; k < B; ++k) acc[k] = init;
  for (std::size_t c = 0; c < g.in_ch; ++c) {
    for (std::size_t r = 0; r < g.kh; ++r) {
      const float* wr = w + (c * g.kh + r) * g.kw;
      const float* xr = x + (c * g.in_h + r) * g.in_w;
      for (std::size_t s = 0; s < g.kw; ++s) {
        if (g.live != nullptr && !(*g.live)[r * g.kw + s]) continue;
        for (std::size_t k = 0; k < B; ++k) acc[k] += xr[s + k] * wr[s];
      }
    }
  }
  for (std::size_t k = 0; k < B; ++k) y[k] = acc[k];
}

// y(f, i, j) = b[f] + the filter f window sum at (i, j), for an
// (out_ch, oh, ow) output: eight outputs of a row at a time, the row's
// tail one at a time.
void conv_forward(const ConvShape& g, const std::vector<float>& w, const std::vector<float>& b,
                  const float* x, std::size_t out_ch, std::size_t oh, std::size_t ow, float* y) {
  constexpr std::size_t kBlock = 8;
  const std::size_t filter_words = g.in_ch * g.kh * g.kw;
  for (std::size_t f = 0; f < out_ch; ++f) {
    const float* wf = &w[f * filter_words];
    const float init = b.empty() ? 0.0f : b[f];
    for (std::size_t i = 0; i < oh; ++i) {
      const float* xi = x + i * g.in_w;
      float* yi = y + (f * oh + i) * ow;
      std::size_t j = 0;
      for (; j + kBlock <= ow; j += kBlock) conv_outputs<kBlock>(g, wf, xi + j, init, yi + j);
      for (; j < ow; ++j) conv_outputs<1>(g, wf, xi + j, init, yi + j);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_ch, std::size_t out_ch, std::size_t kh, std::size_t kw, bool bias)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kh_(kh),
      kw_(kw),
      w_(out_ch * in_ch * kh * kw, 0.0f),
      gw_(w_.size(), 0.0f),
      shape_mask_(kh * kw, true) {
  if (bias) {
    b_.assign(out_ch, 0.0f);
    gb_.assign(out_ch, 0.0f);
  }
}

void Conv2D::init(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ch_ * kh_ * kw_));
  for (auto& v : w_) v = static_cast<float>(rng.uniform(-bound, bound));
  for (auto& v : b_) v = 0.0f;
}

void Conv2D::set_shape_mask(std::vector<bool> mask) {
  check(mask.size() == kh_ * kw_, "Conv2D: shape mask size mismatch");
  shape_mask_ = std::move(mask);
  for (std::size_t f = 0; f < out_ch_; ++f) {
    for (std::size_t c = 0; c < in_ch_; ++c) {
      for (std::size_t r = 0; r < kh_; ++r) {
        for (std::size_t s = 0; s < kw_; ++s) {
          if (!shape_mask_[r * kw_ + s]) w(f, c, r, s) = 0.0f;
        }
      }
    }
  }
}

std::size_t Conv2D::live_positions() const {
  std::size_t live = 0;
  for (bool m : shape_mask_) live += m ? 1 : 0;
  return live;
}

Tensor Conv2D::forward(const Tensor& x) {
  check(x.rank() == 3 && x.dim(0) == in_ch_, "Conv2D: expected (C,H,W) input");
  check(x.dim(1) >= kh_ && x.dim(2) >= kw_, "Conv2D: input smaller than kernel");
  last_x_ = x;
  const std::size_t oh = x.dim(1) - kh_ + 1;
  const std::size_t ow = x.dim(2) - kw_ + 1;
  Tensor y({out_ch_, oh, ow});
  conv_forward({in_ch_, kh_, kw_, x.dim(1), x.dim(2), &shape_mask_}, w_, b_, x.raw(), out_ch_, oh,
               ow, y.raw());
  return y;
}

Tensor Conv2D::backward(const Tensor& dy) {
  const Tensor& x = last_x_;
  const std::size_t oh = dy.dim(1);
  const std::size_t ow = dy.dim(2);
  Tensor dx({in_ch_, x.dim(1), x.dim(2)});
  for (std::size_t f = 0; f < out_ch_; ++f) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const float g = dy.at(f, i, j);
        if (!gb_.empty()) gb_[f] += g;
        for (std::size_t c = 0; c < in_ch_; ++c) {
          for (std::size_t r = 0; r < kh_; ++r) {
            const float* xrow = &x.raw()[(c * x.dim(1) + i + r) * x.dim(2) + j];
            float* dxrow = &dx.raw()[(c * x.dim(1) + i + r) * x.dim(2) + j];
            float* grow = &gw_[((f * in_ch_ + c) * kh_ + r) * kw_];
            const float* wrow = &w_[((f * in_ch_ + c) * kh_ + r) * kw_];
            for (std::size_t s = 0; s < kw_; ++s) {
              if (!shape_mask_[r * kw_ + s]) continue;  // pruned stays zero
              grow[s] += g * xrow[s];
              dxrow[s] += g * wrow[s];
            }
          }
        }
      }
    }
  }
  // Bias gradients were accumulated above.
  return dx;
}

std::vector<ParamView> Conv2D::params() {
  std::vector<ParamView> p{{w_, gw_}};
  if (!b_.empty()) p.push_back({b_, gb_});
  return p;
}

std::vector<std::size_t> Conv2D::output_shape(const std::vector<std::size_t>& in) const {
  check(in.size() == 3 && in[0] == in_ch_, "Conv2D: input shape mismatch");
  return {out_ch_, in[1] - kh_ + 1, in[2] - kw_ + 1};
}

std::size_t Conv2D::stored_weights() const {
  return out_ch_ * in_ch_ * live_positions() + b_.size();
}

// ---------------------------------------------------------------- Conv1D

Conv1D::Conv1D(std::size_t in_ch, std::size_t out_ch, std::size_t k, bool bias)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      k_(k),
      w_(out_ch * in_ch * k, 0.0f),
      gw_(w_.size(), 0.0f) {
  if (bias) {
    b_.assign(out_ch, 0.0f);
    gb_.assign(out_ch, 0.0f);
  }
}

void Conv1D::init(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ch_ * k_));
  for (auto& v : w_) v = static_cast<float>(rng.uniform(-bound, bound));
  for (auto& v : b_) v = 0.0f;
}

Tensor Conv1D::forward(const Tensor& x) {
  check(x.rank() == 2 && x.dim(0) == in_ch_, "Conv1D: expected (C,L) input");
  check(x.dim(1) >= k_, "Conv1D: input shorter than kernel");
  last_x_ = x;
  const std::size_t ol = x.dim(1) - k_ + 1;
  Tensor y({out_ch_, ol});
  conv_forward({in_ch_, 1, k_, 1, x.dim(1), nullptr}, w_, b_, x.raw(), out_ch_, 1, ol, y.raw());
  return y;
}

Tensor Conv1D::backward(const Tensor& dy) {
  const Tensor& x = last_x_;
  const std::size_t ol = dy.dim(1);
  Tensor dx({in_ch_, x.dim(1)});
  for (std::size_t f = 0; f < out_ch_; ++f) {
    for (std::size_t i = 0; i < ol; ++i) {
      const float g = dy.at(f, i);
      if (!gb_.empty()) gb_[f] += g;
      for (std::size_t c = 0; c < in_ch_; ++c) {
        const float* xp = &x.raw()[c * x.dim(1) + i];
        float* dxp = &dx.raw()[c * x.dim(1) + i];
        float* gp = &gw_[(f * in_ch_ + c) * k_];
        const float* wp = &w_[(f * in_ch_ + c) * k_];
        for (std::size_t t = 0; t < k_; ++t) {
          gp[t] += g * xp[t];
          dxp[t] += g * wp[t];
        }
      }
    }
  }
  return dx;
}

std::vector<ParamView> Conv1D::params() {
  std::vector<ParamView> p{{w_, gw_}};
  if (!b_.empty()) p.push_back({b_, gb_});
  return p;
}

std::vector<std::size_t> Conv1D::output_shape(const std::vector<std::size_t>& in) const {
  check(in.size() == 2 && in[0] == in_ch_, "Conv1D: input shape mismatch");
  return {out_ch_, in[1] - k_ + 1};
}

std::size_t Conv1D::stored_weights() const { return w_.size() + b_.size(); }

}  // namespace ehdnn::nn
