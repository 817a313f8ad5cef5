// Convolution layers (valid padding, stride 1) in the layouts the paper's
// models use: Conv2D over (C,H,W) feature maps and Conv1D over (C,L)
// signals (the HAR model's 1x12 kernels).
//
// Structured pruning interacts with Conv2D through `shape_mask`, the
// paper's "filter shape" sparsity: a pruned kernel position (r,s) is zero
// across *all* filters and channels, which is what makes the sparsity
// hardware-friendly — ACE's window gather simply skips pruned positions
// for every window, no per-weight indices needed (paper SSII). Pruning
// 5x5 = 25 positions down to 13 realizes Table II's ~2x CONV compression.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace ehdnn::nn {

class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_ch, std::size_t out_ch, std::size_t kh, std::size_t kw,
         bool bias = true);

  void init(Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Conv2D"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override;
  std::size_t stored_weights() const override;

  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }
  std::size_t kernel_h() const { return kh_; }
  std::size_t kernel_w() const { return kw_; }

  // w(f, c, r, s)
  float& w(std::size_t f, std::size_t c, std::size_t r, std::size_t s) {
    return w_[((f * in_ch_ + c) * kh_ + r) * kw_ + s];
  }
  float w(std::size_t f, std::size_t c, std::size_t r, std::size_t s) const {
    return w_[((f * in_ch_ + c) * kh_ + r) * kw_ + s];
  }
  std::span<float> weights() { return w_; }
  std::span<const float> weights() const { return w_; }
  std::span<float> bias() { return b_; }
  std::span<const float> bias() const { return b_; }

  // Kernel-position structured-pruning mask, row-major (kh*kw);
  // shape_mask()[r*kw+s] == false means position (r,s) is pruned (zero) in
  // every filter/channel. Maintained by the compress module; forward /
  // backward skip pruned positions, and stored_weights() / ACE use the
  // mask to cut storage and MAC length.
  const std::vector<bool>& shape_mask() const { return shape_mask_; }
  void set_shape_mask(std::vector<bool> mask);
  std::size_t live_positions() const;

 private:
  std::size_t in_ch_, out_ch_, kh_, kw_;
  std::vector<float> w_, gw_;
  std::vector<float> b_, gb_;
  std::vector<bool> shape_mask_;
  Tensor last_x_;
};

class Conv1D : public Layer {
 public:
  Conv1D(std::size_t in_ch, std::size_t out_ch, std::size_t k, bool bias = true);

  void init(Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Conv1D"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override;
  std::size_t stored_weights() const override;

  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }
  std::size_t kernel() const { return k_; }

  float& w(std::size_t f, std::size_t c, std::size_t t) { return w_[(f * in_ch_ + c) * k_ + t]; }
  float w(std::size_t f, std::size_t c, std::size_t t) const {
    return w_[(f * in_ch_ + c) * k_ + t];
  }
  std::span<float> weights() { return w_; }
  std::span<const float> weights() const { return w_; }
  std::span<float> bias() { return b_; }
  std::span<const float> bias() const { return b_; }

 private:
  std::size_t in_ch_, out_ch_, k_;
  std::vector<float> w_, gw_;
  std::vector<float> b_, gb_;
  Tensor last_x_;
};

}  // namespace ehdnn::nn
