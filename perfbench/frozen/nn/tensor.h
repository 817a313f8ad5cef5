// Minimal dense float tensor (row-major), sized for microcontroller-scale
// networks. Layouts used across ehdnn:
//   * images / feature maps: (C, H, W)
//   * 1-D signals:           (C, L)
//   * vectors:               (N)
// Batch processing loops over samples; the models in this repo are small
// enough (the whole point of the paper) that this is the right trade-off.
#pragma once

#include <cstddef>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace ehdnn::nn {

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<std::size_t> shape)
      : shape_(std::move(shape)), data_(count(shape_), 0.0f) {}

  Tensor(std::vector<std::size_t> shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    check(data_.size() == count(shape_), "Tensor: data size does not match shape");
  }

  static std::size_t count(const std::vector<std::size_t>& shape) {
    return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                           [](std::size_t a, std::size_t b) { return a * b; });
  }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t i) const { return shape_.at(i); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // (C,H,W) indexing.
  float& at(std::size_t c, std::size_t h, std::size_t w) {
    return data_[(c * shape_[1] + h) * shape_[2] + w];
  }
  float at(std::size_t c, std::size_t h, std::size_t w) const {
    return data_[(c * shape_[1] + h) * shape_[2] + w];
  }

  // (C,L) indexing.
  float& at(std::size_t c, std::size_t l) { return data_[c * shape_[1] + l]; }
  float at(std::size_t c, std::size_t l) const { return data_[c * shape_[1] + l]; }

  // Reinterpret with a new shape of equal element count.
  Tensor reshaped(std::vector<std::size_t> new_shape) const {
    check(count(new_shape) == size(), "Tensor::reshaped: element count mismatch");
    return Tensor(std::move(new_shape), data_);
  }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  float max_abs() const {
    float m = 0.0f;
    for (float v : data_) m = std::max(m, std::abs(v));
    return m;
  }

  std::string shape_str() const {
    std::string s = "(";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      if (i) s += ",";
      s += std::to_string(shape_[i]);
    }
    return s + ")";
  }

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace ehdnn::nn
