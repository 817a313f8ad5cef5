// Fully connected layers: plain Dense and CosineDense.
//
// CosineDense implements cosine normalization (Luo et al., ICANN'18), which
// RAD uses to constrain computed intermediates to [-1, 1] (paper SSIII-A):
// instead of w_i . x it outputs (w_i . x) / (|w_i| |x| + eps), which is a
// cosine similarity and therefore bounded by construction.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace ehdnn::nn {

class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, bool bias = true);

  void init(Rng& rng);  // He-uniform initialization

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Dense"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override;
  std::size_t stored_weights() const override { return w_.size() + b_.size(); }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  std::span<float> weights() { return w_; }
  std::span<const float> weights() const { return w_; }
  std::span<float> bias() { return b_; }
  std::span<const float> bias() const { return b_; }

 protected:
  std::size_t in_, out_;
  std::vector<float> w_, gw_;  // row-major (out, in)
  std::vector<float> b_, gb_;
  Tensor last_x_;
};

class CosineDense : public Dense {
 public:
  CosineDense(std::size_t in, std::size_t out) : Dense(in, out, /*bias=*/false) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "CosineDense"; }

 private:
  static constexpr float kEps = 1e-6f;
  std::vector<float> last_row_norm_;
  float last_x_norm_ = 0.0f;
  Tensor last_y_;
};

}  // namespace ehdnn::nn
