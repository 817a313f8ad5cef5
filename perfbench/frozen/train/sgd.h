// SGD with momentum and weight decay, operating on a model's ParamViews.
#pragma once

#include <vector>

#include "nn/model.h"

namespace ehdnn::train {

struct SgdConfig {
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
  // Global gradient-norm clipping; 0 disables. Deep BCM stacks (HAR/OKG)
  // train much more stably with a modest clip.
  float clip_norm = 0.0f;
};

class Sgd {
 public:
  explicit Sgd(SgdConfig cfg = {}) : cfg_(cfg) {}

  // Applies accumulated gradients (scaled by 1/batch) and zeroes them.
  void step(nn::Model& model, std::size_t batch_size);

  SgdConfig& config() { return cfg_; }

 private:
  SgdConfig cfg_;
  std::vector<std::vector<float>> velocity_;  // lazily sized to param groups
};

}  // namespace ehdnn::train
