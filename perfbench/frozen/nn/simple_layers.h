// Stateless / lightweight layers: ReLU, MaxPool2D, Flatten.
// On the device these run on the CPU without SRAM staging (paper Fig. 3).
#pragma once

#include "nn/layer.h"

namespace ehdnn::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    last_mask_.assign(x.size(), false);
    Tensor y = x;
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (y[i] > 0.0f) {
        last_mask_[i] = true;
      } else {
        y[i] = 0.0f;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& dy) override {
    Tensor dx = dy;
    for (std::size_t i = 0; i < dx.size(); ++i) {
      if (!last_mask_[i]) dx[i] = 0.0f;
    }
    return dx;
  }

  std::string name() const override { return "ReLU"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override {
    return in;
  }

 private:
  std::vector<bool> last_mask_;
};

// 2x2 max pooling with stride 2 over (C,H,W); H and W must be even.
class MaxPool2D : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    check(x.rank() == 3, "MaxPool2D: expected (C,H,W)");
    check(x.dim(1) % 2 == 0 && x.dim(2) % 2 == 0, "MaxPool2D: odd spatial dims");
    const std::size_t c = x.dim(0), oh = x.dim(1) / 2, ow = x.dim(2) / 2;
    in_shape_ = x.shape();
    argmax_.assign(c * oh * ow, 0);
    Tensor y({c, oh, ow});
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t i = 0; i < oh; ++i) {
        for (std::size_t j = 0; j < ow; ++j) {
          float best = -1e30f;
          std::size_t best_idx = 0;
          for (std::size_t di = 0; di < 2; ++di) {
            for (std::size_t dj = 0; dj < 2; ++dj) {
              const std::size_t idx = (ch * x.dim(1) + 2 * i + di) * x.dim(2) + 2 * j + dj;
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          }
          y.at(ch, i, j) = best;
          argmax_[(ch * oh + i) * ow + j] = best_idx;
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& dy) override {
    Tensor dx(in_shape_);
    for (std::size_t o = 0; o < dy.size(); ++o) dx[argmax_[o]] += dy[o];
    return dx;
  }

  std::string name() const override { return "MaxPool2D"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override {
    check(in.size() == 3, "MaxPool2D: input shape mismatch");
    return {in[0], in[1] / 2, in[2] / 2};
  }

 private:
  std::vector<std::size_t> in_shape_;
  std::vector<std::size_t> argmax_;
};

class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    in_shape_ = x.shape();
    return x.reshaped({x.size()});
  }

  Tensor backward(const Tensor& dy) override { return dy.reshaped(in_shape_); }

  std::string name() const override { return "Flatten"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override {
    return {Tensor::count(in)};
  }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace ehdnn::nn
