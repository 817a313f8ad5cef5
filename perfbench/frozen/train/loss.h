// Softmax cross-entropy loss and classification metrics.
#pragma once

#include <span>
#include <vector>

#include "nn/tensor.h"

namespace ehdnn::train {

// Numerically stable softmax.
std::vector<float> softmax(std::span<const float> logits);

struct LossGrad {
  float loss = 0.0f;
  nn::Tensor grad;  // dL/dlogits
};

// Combined softmax + cross-entropy (the usual fused gradient p - onehot).
LossGrad cross_entropy(const nn::Tensor& logits, int label);

int argmax(std::span<const float> v);

}  // namespace ehdnn::train
