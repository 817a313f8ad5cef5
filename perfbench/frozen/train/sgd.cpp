#include "train/sgd.h"

#include <cmath>

namespace ehdnn::train {

void Sgd::step(nn::Model& model, std::size_t batch_size) {
  auto params = model.params();
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (const auto& p : params) velocity_.emplace_back(p.value.size(), 0.0f);
  }
  float inv_batch = 1.0f / static_cast<float>(batch_size);

  if (cfg_.clip_norm > 0.0f) {
    double sq = 0.0;
    for (const auto& p : params) {
      for (float g : p.grad) {
        const double s = static_cast<double>(g) * inv_batch;
        sq += s * s;
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > cfg_.clip_norm) {
      inv_batch *= static_cast<float>(cfg_.clip_norm / norm);
    }
  }
  for (std::size_t g = 0; g < params.size(); ++g) {
    auto& p = params[g];
    auto& vel = velocity_[g];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const float grad = p.grad[i] * inv_batch + cfg_.weight_decay * p.value[i];
      vel[i] = cfg_.momentum * vel[i] - cfg_.lr * grad;
      p.value[i] += vel[i];
      p.grad[i] = 0.0f;
    }
  }
}

}  // namespace ehdnn::train
