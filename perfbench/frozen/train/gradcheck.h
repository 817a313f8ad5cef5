// Numeric gradient checking used by the layer unit tests: compares a
// layer's analytic backward() against central finite differences of a
// scalar loss through forward().
#pragma once

#include <cmath>
#include <functional>

#include "nn/layer.h"
#include "util/rng.h"

namespace ehdnn::train {

// Max relative error between analytic and numeric gradients over all
// parameters and the input, for loss L = sum(w_out .* y) with fixed random
// weighting w_out.
struct GradCheckResult {
  double max_param_err = 0.0;
  double max_input_err = 0.0;
};

inline GradCheckResult grad_check(nn::Layer& layer, nn::Tensor x, Rng& rng,
                                  double eps = 1e-3) {
  // Fixed output weighting makes the loss scalar: L = sum w .* f(x).
  // The weighting keeps the layer's output shape so backward() sees a
  // correctly shaped upstream gradient.
  nn::Tensor y0 = layer.forward(x);
  nn::Tensor wout(y0.shape());
  for (std::size_t i = 0; i < wout.size(); ++i) {
    wout[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  auto loss = [&](const nn::Tensor& in) {
    nn::Tensor y = layer.forward(in);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += static_cast<double>(wout[i]) * y[i];
    return l;
  };

  // Analytic gradients.
  layer.zero_grad();
  layer.forward(x);
  nn::Tensor dx = layer.backward(wout);

  auto rel_err = [](double a, double b) {
    const double denom = std::max({std::abs(a), std::abs(b), 1e-4});
    return std::abs(a - b) / denom;
  };

  GradCheckResult res;

  // Input gradient.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float keep = x[i];
    x[i] = keep + static_cast<float>(eps);
    const double lp = loss(x);
    x[i] = keep - static_cast<float>(eps);
    const double lm = loss(x);
    x[i] = keep;
    const double num = (lp - lm) / (2.0 * eps);
    res.max_input_err = std::max(res.max_input_err, rel_err(num, dx[i]));
  }

  // Parameter gradients (analytic grads are still stored in the layer).
  for (auto& p : layer.params()) {
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const float keep = p.value[i];
      p.value[i] = keep + static_cast<float>(eps);
      const double lp = loss(x);
      p.value[i] = keep - static_cast<float>(eps);
      const double lm = loss(x);
      p.value[i] = keep;
      const double num = (lp - lm) / (2.0 * eps);
      res.max_param_err = std::max(res.max_param_err, rel_err(num, p.grad[i]));
    }
  }
  return res;
}

}  // namespace ehdnn::train
