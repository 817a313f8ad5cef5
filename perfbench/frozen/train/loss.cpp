#include "train/loss.h"

#include <algorithm>
#include <cmath>

namespace ehdnn::train {

std::vector<float> softmax(std::span<const float> logits) {
  const float mx = *std::max_element(logits.begin(), logits.end());
  std::vector<float> p(logits.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (auto& v : p) v /= sum;
  return p;
}

LossGrad cross_entropy(const nn::Tensor& logits, int label) {
  auto p = softmax(logits.data());
  LossGrad lg;
  const float pl = std::max(p[static_cast<std::size_t>(label)], 1e-12f);
  lg.loss = -std::log(pl);
  lg.grad = nn::Tensor({logits.size()});
  for (std::size_t i = 0; i < p.size(); ++i) {
    lg.grad[i] = p[i] - (static_cast<int>(i) == label ? 1.0f : 0.0f);
  }
  return lg;
}

int argmax(std::span<const float> v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace ehdnn::train
