// Layer interface for the float training/reference stack.
//
// forward() caches whatever backward() needs (classic define-by-run
// autograd-free design); backward() receives dL/dy, accumulates parameter
// gradients internally, and returns dL/dx. Optimizers reach parameters and
// their gradients through params().
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace ehdnn::nn {

// A parameter blob paired with its gradient accumulator.
struct ParamView {
  std::span<float> value;
  std::span<float> grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& dy) = 0;

  // Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamView> params() { return {}; }

  virtual std::string name() const = 0;

  // Output shape for a given input shape (used by the dataflow planner and
  // the resource estimator without running data through the layer).
  virtual std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const = 0;

  // Number of stored weights (after compression, i.e. what would live in
  // FRAM on the device).
  virtual std::size_t stored_weights() const { return 0; }

  void zero_grad() {
    for (auto& p : params()) {
      std::fill(p.grad.begin(), p.grad.end(), 0.0f);
    }
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace ehdnn::nn
