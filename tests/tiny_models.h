// The miniature models the runtime tests share (ace, executor, flex,
// crash-fuzz and scheduler suites): a BCM-compressed model and its dense
// twin on one 1x10x10 input — small enough for thousands of runs, big
// enough to hit every kernel kind (conv, pool, BCM/FFT, dense) and every
// commit protocol and checkpoint payload.
#pragma once

#include <vector>

#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "quant/quantize.h"
#include "util/rng.h"

namespace ehdnn::testutil {

inline nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

inline quant::QuantModel mixed_model(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::BcmDense>(2 * 4 * 4, 16, 16)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

inline quant::QuantModel dense_model(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::Dense>(2 * 4 * 4, 16)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

}  // namespace ehdnn::testutil
