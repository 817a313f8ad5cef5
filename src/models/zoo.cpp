#include "models/zoo.h"

#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "quant/quantize.h"
#include "util/check.h"

namespace ehdnn::models {

const char* task_name(Task t) {
  switch (t) {
    case Task::kMnist: return "MNIST";
    case Task::kHar: return "HAR";
    case Task::kOkg: return "OKG";
  }
  return "?";
}

Task parse_task(const std::string& name) {
  if (name == "mnist") return Task::kMnist;
  if (name == "har") return Task::kHar;
  if (name == "okg") return Task::kOkg;
  fail_input("unknown task \"" + name + "\" (mnist|har|okg)");
}

ModelInfo model_info(Task t) {
  switch (t) {
    case Task::kMnist:
      return {t, {1, 28, 28}, 10, /*pruned_conv_layer=*/3, /*keep=*/13};
    case Task::kHar:
      return {t, {1, 121}, 6, -1, 0};
    case Task::kOkg:
      return {t, {1, 28, 28}, 12, -1, 0};
  }
  fail("model_info: unknown task");
}

nn::Model make_mnist_model(Rng& rng, ModelInfo* info) {
  nn::Model m;
  auto* c1 = m.add<nn::Conv2D>(1, 6, 5, 5);        // 0: 28x28 -> 24x24x6
  m.add<nn::ReLU>();                               // 1
  m.add<nn::MaxPool2D>();                          // 2: -> 12x12x6
  auto* c2 = m.add<nn::Conv2D>(6, 16, 5, 5);       // 3: -> 8x8x16 (pruned ~2x)
  m.add<nn::ReLU>();                               // 4
  m.add<nn::MaxPool2D>();                          // 5: -> 4x4x16
  m.add<nn::Flatten>();                            // 6: -> 256
  auto* f1 = m.add<nn::BcmDense>(256, 256, 128);   // 7: BCM 128x
  m.add<nn::ReLU>();                               // 8
  auto* f2 = m.add<nn::Dense>(256, 10);            // 9
  c1->init(rng);
  c2->init(rng);
  f1->init(rng);
  f2->init(rng);
  if (info != nullptr) *info = model_info(Task::kMnist);
  return m;
}

nn::Model make_har_model(Rng& rng, ModelInfo* info) {
  nn::Model m;
  auto* c1 = m.add<nn::Conv1D>(1, 32, 12);          // 0: (1,121) -> (32,110)
  m.add<nn::ReLU>();                                // 1
  m.add<nn::Flatten>();                             // 2: -> 3520
  auto* f1 = m.add<nn::BcmDense>(3520, 128, 128);   // 3: BCM 128x (pads to 3584)
  m.add<nn::ReLU>();                                // 4
  auto* f2 = m.add<nn::BcmDense>(128, 64, 64);      // 5: BCM 64x
  m.add<nn::ReLU>();                                // 6
  auto* f3 = m.add<nn::Dense>(64, 6);               // 7
  c1->init(rng);
  f1->init(rng);
  f2->init(rng);
  f3->init(rng);
  if (info != nullptr) *info = model_info(Task::kHar);
  return m;
}

nn::Model make_okg_model(Rng& rng, ModelInfo* info) {
  nn::Model m;
  auto* c1 = m.add<nn::Conv2D>(1, 6, 5, 5);         // 0: (1,28,28) -> (6,24,24)
  m.add<nn::ReLU>();                                // 1
  m.add<nn::Flatten>();                             // 2: -> 3456
  auto* f1 = m.add<nn::BcmDense>(3456, 512, 256);   // 3: BCM 256x (pads to 3584)
  m.add<nn::ReLU>();                                // 4
  auto* f2 = m.add<nn::BcmDense>(512, 256, 128);    // 5: BCM 128x
  m.add<nn::ReLU>();                                // 6
  auto* f3 = m.add<nn::BcmDense>(256, 128, 64);     // 7: BCM 64x
  m.add<nn::ReLU>();                                // 8
  auto* f4 = m.add<nn::Dense>(128, 12);             // 9
  c1->init(rng);
  f1->init(rng);
  f2->init(rng);
  f3->init(rng);
  f4->init(rng);
  if (info != nullptr) *info = model_info(Task::kOkg);
  return m;
}

nn::Model make_model(Task t, Rng& rng, ModelInfo* info) {
  switch (t) {
    case Task::kMnist: return make_mnist_model(rng, info);
    case Task::kHar: return make_har_model(rng, info);
    case Task::kOkg: return make_okg_model(rng, info);
  }
  fail("make_model: unknown task");
}

nn::Model make_mnist_dense(Rng& rng) {
  nn::Model m;
  auto* c1 = m.add<nn::Conv2D>(1, 6, 5, 5);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  auto* c2 = m.add<nn::Conv2D>(6, 16, 5, 5);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  auto* f1 = m.add<nn::Dense>(256, 256);
  m.add<nn::ReLU>();
  auto* f2 = m.add<nn::Dense>(256, 10);
  c1->init(rng);
  c2->init(rng);
  f1->init(rng);
  f2->init(rng);
  return m;
}

nn::Model make_har_dense(Rng& rng) {
  nn::Model m;
  auto* c1 = m.add<nn::Conv1D>(1, 32, 12);
  m.add<nn::ReLU>();
  m.add<nn::Flatten>();
  auto* f1 = m.add<nn::Dense>(3520, 128);
  m.add<nn::ReLU>();
  auto* f2 = m.add<nn::Dense>(128, 64);
  m.add<nn::ReLU>();
  auto* f3 = m.add<nn::Dense>(64, 6);
  c1->init(rng);
  f1->init(rng);
  f2->init(rng);
  f3->init(rng);
  return m;
}

nn::Model make_okg_dense(Rng& rng) {
  nn::Model m;
  auto* c1 = m.add<nn::Conv2D>(1, 6, 5, 5);
  m.add<nn::ReLU>();
  m.add<nn::Flatten>();
  auto* f1 = m.add<nn::Dense>(3456, 512);
  m.add<nn::ReLU>();
  auto* f2 = m.add<nn::Dense>(512, 256);
  m.add<nn::ReLU>();
  auto* f3 = m.add<nn::Dense>(256, 128);
  m.add<nn::ReLU>();
  auto* f4 = m.add<nn::Dense>(128, 12);
  c1->init(rng);
  f1->init(rng);
  f2->init(rng);
  f3->init(rng);
  f4->init(rng);
  return m;
}

nn::Model make_dense_model(Task t, Rng& rng) {
  switch (t) {
    case Task::kMnist: return make_mnist_dense(rng);
    case Task::kHar: return make_har_dense(rng);
    case Task::kOkg: return make_okg_dense(rng);
  }
  fail("make_dense_model: unknown task");
}

nn::Model make_lenet5(Rng& rng) {
  // The Fig. 3 dataflow example: two conv/pool stages and two FCs, the
  // first FC BCM-compressed.
  nn::Model m;
  auto* c1 = m.add<nn::Conv2D>(1, 6, 5, 5);
  m.add<nn::MaxPool2D>();
  auto* c2 = m.add<nn::Conv2D>(6, 16, 5, 5);
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  auto* f1 = m.add<nn::BcmDense>(256, 256, 64);
  m.add<nn::ReLU>();
  auto* f2 = m.add<nn::Dense>(256, 10);
  c1->init(rng);
  c2->init(rng);
  f1->init(rng);
  f2->init(rng);
  return m;
}

nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

quant::QuantModel make_deployed_qmodel(Task t, bool compressed, Rng& rng) {
  const ModelInfo info = model_info(t);
  nn::Model m = compressed ? make_model(t, rng) : make_dense_model(t, rng);
  if (compressed && info.pruned_conv_layer >= 0) {
    auto* conv =
        dynamic_cast<nn::Conv2D*>(&m.layer(static_cast<std::size_t>(info.pruned_conv_layer)));
    if (conv != nullptr) {
      std::vector<bool> mask(conv->kernel_h() * conv->kernel_w(), false);
      for (std::size_t i = 0; i < info.prune_keep_positions; ++i) mask[i] = true;
      conv->set_shape_mask(mask);
    }
  }
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor(info.input_shape, rng));
  quant::QuantizeOptions qo;
  qo.model_name = task_name(t);
  return quant::quantize(m, calib, info.input_shape, qo);
}

dev::DeviceConfig deployment_device_config(bool compressed) {
  dev::DeviceConfig cfg;
  if (!compressed) cfg.fram_words = 8 * 1024 * 1024;
  return cfg;
}

}  // namespace ehdnn::models
