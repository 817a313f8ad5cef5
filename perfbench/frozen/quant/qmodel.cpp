#include "quant/qmodel.h"

#include <algorithm>

#include "nn/tensor.h"

namespace ehdnn::quant {

const char* kind_name(QKind k) {
  switch (k) {
    case QKind::kConv2D: return "Conv2D";
    case QKind::kConv1D: return "Conv1D";
    case QKind::kMaxPool2D: return "MaxPool2D";
    case QKind::kReLU: return "ReLU";
    case QKind::kFlatten: return "Flatten";
    case QKind::kDense: return "Dense";
    case QKind::kBcmDense: return "BcmDense";
  }
  return "?";
}

std::size_t QLayer::in_size() const { return nn::Tensor::count(in_shape); }
std::size_t QLayer::out_size() const { return nn::Tensor::count(out_shape); }

std::size_t QuantModel::weight_words() const {
  std::size_t n = 0;
  for (const auto& l : layers) n += l.weight_words();
  return n;
}

std::size_t QuantModel::max_activation_words() const {
  std::size_t m = 0;
  for (const auto& l : layers) {
    m = std::max({m, l.in_size(), l.out_size()});
  }
  return m;
}

}  // namespace ehdnn::quant
