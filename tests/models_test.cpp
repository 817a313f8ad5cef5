#include <gtest/gtest.h>

#include <cstdint>

#include "compress/structured.h"
#include "models/zoo.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "quant/qmodel.h"
#include "util/rng.h"

namespace ehdnn::models {
namespace {

TEST(Zoo, MnistShapesMatchTableII) {
  Rng rng(1);
  ModelInfo info;
  nn::Model m = make_mnist_model(rng, &info);
  EXPECT_EQ(info.input_shape, (std::vector<std::size_t>{1, 28, 28}));
  const auto out = m.output_shape(info.input_shape);
  EXPECT_EQ(out, (std::vector<std::size_t>{10}));

  auto* c2 = dynamic_cast<nn::Conv2D*>(&m.layer(3));
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->out_channels(), 16u);  // Conv 16x6x5x5
  EXPECT_EQ(c2->in_channels(), 6u);

  auto* f1 = dynamic_cast<nn::BcmDense*>(&m.layer(7));
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->in_features(), 256u);  // FC 256x256, BCM 128x
  EXPECT_EQ(f1->out_features(), 256u);
  EXPECT_EQ(f1->block_size(), 128u);
}

TEST(Zoo, HarShapesMatchTableII) {
  Rng rng(2);
  ModelInfo info;
  nn::Model m = make_har_model(rng, &info);
  EXPECT_EQ(info.input_shape, (std::vector<std::size_t>{1, 121}));
  EXPECT_EQ(m.output_shape(info.input_shape), (std::vector<std::size_t>{6}));

  auto* f1 = dynamic_cast<nn::BcmDense*>(&m.layer(3));
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->in_features(), 3520u);  // FC 3520x128, BCM 128x
  EXPECT_EQ(f1->out_features(), 128u);
  EXPECT_EQ(f1->block_size(), 128u);

  auto* f2 = dynamic_cast<nn::BcmDense*>(&m.layer(5));
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f2->block_size(), 64u);  // FC 128x64, BCM 64x
}

TEST(Zoo, OkgShapesMatchTableII) {
  Rng rng(3);
  ModelInfo info;
  nn::Model m = make_okg_model(rng, &info);
  EXPECT_EQ(m.output_shape(info.input_shape), (std::vector<std::size_t>{12}));

  auto* f1 = dynamic_cast<nn::BcmDense*>(&m.layer(3));
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->in_features(), 3456u);  // FC 3456x512, BCM 256x
  EXPECT_EQ(f1->out_features(), 512u);
  EXPECT_EQ(f1->block_size(), 256u);

  auto* f2 = dynamic_cast<nn::BcmDense*>(&m.layer(5));
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f2->block_size(), 128u);
  auto* f3 = dynamic_cast<nn::BcmDense*>(&m.layer(7));
  ASSERT_NE(f3, nullptr);
  EXPECT_EQ(f3->block_size(), 64u);
}

TEST(Zoo, CompressionRatiosMatchTableII) {
  Rng rng(4);
  nn::Model m = make_mnist_model(rng);
  auto* f1 = dynamic_cast<nn::BcmDense*>(&m.layer(7));
  ASSERT_NE(f1, nullptr);
  // BCM 128x: stored weights = 256*256/128.
  EXPECT_EQ(f1->stored_weights() - f1->bias().size(), 256u * 256u / 128u);

  auto* c2 = dynamic_cast<nn::Conv2D*>(&m.layer(3));
  ASSERT_NE(c2, nullptr);
  cmp::project_shape_sparse(*c2, 13);
  EXPECT_NEAR(cmp::shape_compression(*c2), 2.0, 0.1);  // "2x" in Table II
}

TEST(Zoo, DenseTwinsHaveSameTopologyWithoutCompression) {
  Rng rng(5);
  nn::Model comp = make_okg_model(rng);
  nn::Model dense = make_okg_dense(rng);
  EXPECT_EQ(comp.layer_count(), dense.layer_count());
  EXPECT_GT(dense.stored_weights(), comp.stored_weights() * 50);  // BCM shrinks a lot
  EXPECT_EQ(dense.output_shape({1, 28, 28}), comp.output_shape({1, 28, 28}));
}

TEST(Zoo, ForwardRunsOnAllModels) {
  Rng rng(6);
  for (Task t : {Task::kMnist, Task::kHar, Task::kOkg}) {
    ModelInfo info;
    nn::Model m = make_model(t, rng, &info);
    nn::Tensor x(info.input_shape);
    const nn::Tensor y = m.forward(x);
    EXPECT_EQ(y.size(), info.num_classes) << task_name(t);

    nn::Model d = make_dense_model(t, rng);
    EXPECT_EQ(d.forward(x).size(), info.num_classes);
  }
}

TEST(Zoo, LeNet5Forward) {
  Rng rng(7);
  nn::Model m = make_lenet5(rng);
  nn::Tensor x({1, 28, 28});
  EXPECT_EQ(m.forward(x).size(), 10u);
}

TEST(Zoo, TaskNames) {
  EXPECT_STREQ(task_name(Task::kMnist), "MNIST");
  EXPECT_STREQ(task_name(Task::kHar), "HAR");
  EXPECT_STREQ(task_name(Task::kOkg), "OKG");
}

// FNV-1a over every layer's kind, exponents, weight words and bias words,
// in layer order (each vector prefixed by its length).
std::uint64_t qmodel_digest(const quant::QuantModel& qm) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const auto fold_words = [&fold](const std::vector<fx::q15_t>& words) {
    fold(words.size());
    for (const fx::q15_t w : words) fold(static_cast<std::uint16_t>(w));
  };
  for (const quant::QLayer& l : qm.layers) {
    fold(static_cast<std::uint64_t>(l.kind));
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(l.w_exp)));
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(l.in_exp)));
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(l.out_exp)));
    fold_words(l.weights);
    fold_words(l.bias);
  }
  return h;
}

// Pins the deployed QuantModel bytes of every task x variant on the two
// seeds the benches use. Modeled costs do not depend on weight values, so
// the cost goldens cannot see a changed weight or exponent; this can. A
// change to the build path (layer init, float forward, quantization)
// that claims identical models has to keep these digests.
TEST(Zoo, DeployedQuantModelDigestsArePinned) {
  struct Case {
    Task task;
    bool compressed;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {Task::kMnist, false, 0xb0a710ad, 0x6333d393db8f9fd7ull},
      {Task::kMnist, true, 0xb0a710ad, 0x59ef9ab8867640fdull},
      {Task::kHar, false, 0xb0a710ad, 0x7c6a3402cc545acdull},
      {Task::kHar, true, 0xb0a710ad, 0x470b9573017872d8ull},
      {Task::kOkg, false, 0xb0a710ad, 0x43c3881004d60822ull},
      {Task::kOkg, true, 0xb0a710ad, 0x7b1c547dcf576f18ull},
      {Task::kMnist, false, 0x5eed2026, 0x445d9d83e3ba9cc5ull},
      {Task::kMnist, true, 0x5eed2026, 0xf321e5ff99d1ef5aull},
      {Task::kHar, false, 0x5eed2026, 0xa546fdfd4184364eull},
      {Task::kHar, true, 0x5eed2026, 0x85bddc1a4a95ca63ull},
      {Task::kOkg, false, 0x5eed2026, 0xe07c6d06efc11cc2ull},
      {Task::kOkg, true, 0x5eed2026, 0xb6b78704e8e0985aull},
  };
  for (const Case& c : cases) {
    // Seeded like the scenario sweep and the fleet: seed + task index.
    Rng rng(c.seed + static_cast<std::uint64_t>(c.task));
    const std::uint64_t got = qmodel_digest(make_deployed_qmodel(c.task, c.compressed, rng));
    EXPECT_EQ(got, c.digest) << task_name(c.task) << (c.compressed ? " compressed" : " dense")
                             << " seed 0x" << std::hex << c.seed;
  }
}

}  // namespace
}  // namespace ehdnn::models
