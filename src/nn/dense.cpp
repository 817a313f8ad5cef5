#include "nn/dense.h"

#include <cmath>

namespace ehdnn::nn {

Dense::Dense(std::size_t in, std::size_t out, bool bias)
    : in_(in), out_(out), w_(in * out, 0.0f), gw_(in * out, 0.0f) {
  if (bias) {
    b_.assign(out, 0.0f);
    gb_.assign(out, 0.0f);
  }
}

void Dense::init(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  for (auto& v : w_) v = static_cast<float>(rng.uniform(-bound, bound));
  for (auto& v : b_) v = 0.0f;
}

namespace {

// y[o, o+B) = b + W[o, o+B) x for B consecutive output neurons in one pass
// over x. Each neuron keeps its own float sum, accumulated in input order
// exactly as a one-neuron loop would, so the result is bit-identical to
// B single-neuron passes; the B sums are independent, so their adds
// overlap instead of each waiting on the one before.
template <std::size_t B>
void dense_rows(const float* w, const float* b, const float* x, std::size_t in,
                std::size_t o, float* y) {
  float acc[B];
  const float* row[B];
  for (std::size_t k = 0; k < B; ++k) {
    acc[k] = b == nullptr ? 0.0f : b[o + k];
    row[k] = w + (o + k) * in;
  }
  for (std::size_t i = 0; i < in; ++i) {
    for (std::size_t k = 0; k < B; ++k) acc[k] += row[k][i] * x[i];
  }
  for (std::size_t k = 0; k < B; ++k) y[o + k] = acc[k];
}

}  // namespace

Tensor Dense::forward(const Tensor& x) {
  check(x.size() == in_, "Dense: input size mismatch");
  last_x_ = x;
  Tensor y({out_});
  constexpr std::size_t kBlock = 8;
  const float* b = b_.empty() ? nullptr : b_.data();
  std::size_t o = 0;
  for (; o + kBlock <= out_; o += kBlock) dense_rows<kBlock>(w_.data(), b, x.raw(), in_, o, y.raw());
  for (; o < out_; ++o) dense_rows<1>(w_.data(), b, x.raw(), in_, o, y.raw());
  return y;
}

Tensor Dense::backward(const Tensor& dy) {
  check(dy.size() == out_, "Dense: grad size mismatch");
  Tensor dx({in_});
  for (std::size_t o = 0; o < out_; ++o) {
    const float g = dy[o];
    const float* row = &w_[o * in_];
    float* grow = &gw_[o * in_];
    for (std::size_t i = 0; i < in_; ++i) {
      grow[i] += g * last_x_[i];
      dx[i] += g * row[i];
    }
    if (!gb_.empty()) gb_[o] += g;
  }
  return dx;
}

std::vector<ParamView> Dense::params() {
  std::vector<ParamView> p{{w_, gw_}};
  if (!b_.empty()) p.push_back({b_, gb_});
  return p;
}

std::vector<std::size_t> Dense::output_shape(const std::vector<std::size_t>& in) const {
  check(Tensor::count(in) == in_, "Dense: input shape mismatch");
  return {out_};
}

Tensor CosineDense::forward(const Tensor& x) {
  check(x.size() == in_, "CosineDense: input size mismatch");
  last_x_ = x;
  float xn = 0.0f;
  for (std::size_t i = 0; i < in_; ++i) xn += x[i] * x[i];
  last_x_norm_ = std::sqrt(xn) + kEps;

  last_row_norm_.assign(out_, 0.0f);
  Tensor y({out_});
  for (std::size_t o = 0; o < out_; ++o) {
    const float* row = &w_[o * in_];
    float dot = 0.0f, wn = 0.0f;
    for (std::size_t i = 0; i < in_; ++i) {
      dot += row[i] * x[i];
      wn += row[i] * row[i];
    }
    last_row_norm_[o] = std::sqrt(wn) + kEps;
    y[o] = dot / (last_row_norm_[o] * last_x_norm_);
  }
  last_y_ = y;
  return y;
}

Tensor CosineDense::backward(const Tensor& dy) {
  // y_o = (w_o . x) / (|w_o| |x|); with s_o = y_o:
  //   dL/dw_o = g_o * ( x / (|w_o||x|) - s_o * w_o / |w_o|^2 )
  //   dL/dx  += g_o * ( w_o / (|w_o||x|) - s_o * x / |x|^2 )
  check(dy.size() == out_, "CosineDense: grad size mismatch");
  Tensor dx({in_});
  const float xn = last_x_norm_;
  for (std::size_t o = 0; o < out_; ++o) {
    const float g = dy[o];
    const float wn = last_row_norm_[o];
    const float s = last_y_[o];
    const float* row = &w_[o * in_];
    float* grow = &gw_[o * in_];
    for (std::size_t i = 0; i < in_; ++i) {
      grow[i] += g * (last_x_[i] / (wn * xn) - s * row[i] / (wn * wn));
      dx[i] += g * (row[i] / (wn * xn) - s * last_x_[i] / (xn * xn));
    }
  }
  return dx;
}

}  // namespace ehdnn::nn
