#include "models/tiny.h"

#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "quant/quantize.h"

namespace ehdnn::models {

namespace {

quant::QuantModel tiny_qmodel(bool compressed, Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  if (compressed) {
    m.add<nn::BcmDense>(2 * 4 * 4, 16, 16)->init(rng);
  } else {
    m.add<nn::Dense>(2 * 4 * 4, 16)->init(rng);
  }
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

}  // namespace

quant::QuantModel tiny_compressed_qmodel(Rng& rng) { return tiny_qmodel(true, rng); }

quant::QuantModel tiny_dense_qmodel(Rng& rng) { return tiny_qmodel(false, rng); }

}  // namespace ehdnn::models
