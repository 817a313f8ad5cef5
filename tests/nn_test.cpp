#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "train/gradcheck.h"
#include "util/rng.h"

namespace ehdnn::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng, double amp = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-amp, amp));
  }
  return t;
}

TEST(Tensor, ShapeAndIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  t.at(1, 2, 3) = 5.0f;
  EXPECT_EQ(t[23], 5.0f);
  EXPECT_EQ(t.shape_str(), "(2,3,4)");
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  t[4] = 7.0f;
  const Tensor r = t.reshaped({6});
  EXPECT_EQ(r.dim(0), 6u);
  EXPECT_EQ(r[4], 7.0f);
  EXPECT_THROW(t.reshaped({5}), Error);
}

TEST(Tensor, MaxAbs) {
  Tensor t({3});
  t[0] = -2.5f;
  t[1] = 1.0f;
  EXPECT_FLOAT_EQ(t.max_abs(), 2.5f);
}

// Dense::forward sums several output neurons per pass over the input;
// each neuron's float sum must still be the one-neuron loop's, bit for
// bit (out = 13 and 5 leave a partial block).
TEST(Dense, ForwardMatchesASerialReference) {
  Rng rng(3);
  for (const bool bias : {true, false}) {
    for (const std::size_t out : {1u, 5u, 8u, 13u, 24u}) {
      Dense layer(37, out, bias);
      layer.init(rng);
      for (float& b : layer.bias()) b = static_cast<float>(rng.uniform(-0.5, 0.5));
      const Tensor x = random_tensor({37}, rng);
      const Tensor y = layer.forward(x);
      ASSERT_EQ(y.size(), out);
      for (std::size_t o = 0; o < out; ++o) {
        float acc = bias ? layer.bias()[o] : 0.0f;
        for (std::size_t i = 0; i < 37; ++i) acc += layer.weights()[o * 37 + i] * x[i];
        EXPECT_EQ(y[o], acc) << "out=" << out << " o=" << o << " bias=" << bias;
      }
    }
  }
}

// Conv2D::forward computes eight adjacent outputs of a row per pass over
// the filter; each output's float sum must still be the plain loop's
// (channel, kernel row, column; pruned positions skipped), bit for bit.
// Widths 7 and 9 leave a partial block, 1 and 7 no full one.
TEST(Conv2D, ForwardMatchesASerialReference) {
  Rng rng(5);
  for (const bool pruned : {false, true}) {
    for (const bool bias : {true, false}) {
      for (const std::size_t in_ch : {1u, 6u}) {
        for (const std::size_t ow : {1u, 7u, 8u, 9u, 24u}) {
          constexpr std::size_t kH = 3, kW = 3, kOut = 3, kRows = 2;
          Conv2D layer(in_ch, kOut, kH, kW, bias);
          layer.init(rng);
          for (float& b : layer.bias()) b = static_cast<float>(rng.uniform(-0.5, 0.5));
          if (pruned) {
            layer.set_shape_mask({true, false, true, false, true, true, false, true, false});
            // The forward skips a pruned position whatever its weight holds.
            for (std::size_t f = 0; f < kOut; ++f) {
              for (std::size_t c = 0; c < in_ch; ++c) layer.w(f, c, 0, 1) = 0.25f;
            }
          }
          const Tensor x = random_tensor({in_ch, kRows + kH - 1, ow + kW - 1}, rng);
          const Tensor y = layer.forward(x);
          ASSERT_EQ(y.size(), kOut * kRows * ow);
          const auto& mask = layer.shape_mask();
          for (std::size_t f = 0; f < kOut; ++f) {
            for (std::size_t i = 0; i < kRows; ++i) {
              for (std::size_t j = 0; j < ow; ++j) {
                float acc = bias ? layer.bias()[f] : 0.0f;
                for (std::size_t c = 0; c < in_ch; ++c) {
                  for (std::size_t r = 0; r < kH; ++r) {
                    for (std::size_t s = 0; s < kW; ++s) {
                      if (mask[r * kW + s]) acc += x.at(c, i + r, j + s) * layer.w(f, c, r, s);
                    }
                  }
                }
                EXPECT_EQ(std::bit_cast<std::uint32_t>(y.at(f, i, j)),
                          std::bit_cast<std::uint32_t>(acc))
                    << "ow=" << ow << " in_ch=" << in_ch << " bias=" << bias
                    << " pruned=" << pruned << " at (" << f << "," << i << "," << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

// Conv1D::forward, the same blocking over a one-row output.
TEST(Conv1D, ForwardMatchesASerialReference) {
  Rng rng(6);
  for (const bool bias : {true, false}) {
    for (const std::size_t in_ch : {1u, 6u}) {
      for (const std::size_t ol : {1u, 7u, 8u, 9u, 24u}) {
        constexpr std::size_t kK = 5, kOut = 3;
        Conv1D layer(in_ch, kOut, kK, bias);
        layer.init(rng);
        for (float& b : layer.bias()) b = static_cast<float>(rng.uniform(-0.5, 0.5));
        const Tensor x = random_tensor({in_ch, ol + kK - 1}, rng);
        const Tensor y = layer.forward(x);
        ASSERT_EQ(y.size(), kOut * ol);
        for (std::size_t f = 0; f < kOut; ++f) {
          for (std::size_t i = 0; i < ol; ++i) {
            float acc = bias ? layer.bias()[f] : 0.0f;
            for (std::size_t c = 0; c < in_ch; ++c) {
              for (std::size_t t = 0; t < kK; ++t) acc += x.at(c, i + t) * layer.w(f, c, t);
            }
            EXPECT_EQ(std::bit_cast<std::uint32_t>(y.at(f, i)), std::bit_cast<std::uint32_t>(acc))
                << "ol=" << ol << " in_ch=" << in_ch << " bias=" << bias << " at (" << f << ","
                << i << ")";
          }
        }
      }
    }
  }
}

// ---- gradient checks -------------------------------------------------------

TEST(Dense, GradCheck) {
  Rng rng(1);
  Dense layer(7, 5);
  layer.init(rng);
  auto res = train::grad_check(layer, random_tensor({7}, rng), rng);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(CosineDense, GradCheck) {
  Rng rng(2);
  CosineDense layer(6, 4);
  layer.init(rng);
  auto res = train::grad_check(layer, random_tensor({6}, rng), rng);
  EXPECT_LT(res.max_param_err, 3e-2);
  EXPECT_LT(res.max_input_err, 3e-2);
}

TEST(CosineDense, OutputsBounded) {
  // Cosine normalization constrains intermediates to [-1, 1] (paper SSIII-A).
  Rng rng(3);
  CosineDense layer(32, 16);
  layer.init(rng);
  for (int trial = 0; trial < 50; ++trial) {
    const Tensor y = layer.forward(random_tensor({32}, rng, /*amp=*/10.0));
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_GE(y[i], -1.0001f);
      EXPECT_LE(y[i], 1.0001f);
    }
  }
}

TEST(Conv2D, GradCheck) {
  Rng rng(4);
  Conv2D layer(2, 3, 3, 3);
  layer.init(rng);
  auto res = train::grad_check(layer, random_tensor({2, 6, 6}, rng), rng);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Conv2D, GradCheckWithShapeMask) {
  Rng rng(5);
  Conv2D layer(1, 2, 3, 3);
  layer.init(rng);
  layer.set_shape_mask({true, false, true, false, true, false, true, false, true});
  auto res = train::grad_check(layer, random_tensor({1, 5, 5}, rng), rng);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Conv1D, GradCheck) {
  Rng rng(6);
  Conv1D layer(2, 3, 4);
  layer.init(rng);
  auto res = train::grad_check(layer, random_tensor({2, 9}, rng), rng);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

class BcmGrad : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BcmGrad, GradCheck) {
  const std::size_t k = GetParam();
  Rng rng(7 + k);
  BcmDense layer(2 * k, k, k);  // two block columns, one block row
  layer.init(rng);
  auto res = train::grad_check(layer, random_tensor({2 * k}, rng), rng);
  EXPECT_LT(res.max_param_err, 3e-2);
  EXPECT_LT(res.max_input_err, 3e-2);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BcmGrad, ::testing::Values(4u, 8u, 16u));

TEST(BcmDense, GradCheckWithPadding) {
  Rng rng(8);
  BcmDense layer(10, 8, 8);  // input pads 10 -> 16
  layer.init(rng);
  auto res = train::grad_check(layer, random_tensor({10}, rng), rng);
  EXPECT_LT(res.max_param_err, 3e-2);
  EXPECT_LT(res.max_input_err, 3e-2);
}

TEST(MaxPool2D, GradCheck) {
  Rng rng(9);
  MaxPool2D layer;
  auto res = train::grad_check(layer, random_tensor({2, 4, 4}, rng), rng);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(ReLU, ForwardBackward) {
  ReLU layer;
  Tensor x({4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = 0.5f;
  const Tensor y = layer.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  Tensor dy({4});
  dy.fill(1.0f);
  const Tensor dx = layer.backward(dy);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 0.0f);  // not strictly positive
}

// ---- BCM semantics ---------------------------------------------------------

TEST(BcmDense, ForwardMatchesDenseEquivalent) {
  Rng rng(10);
  BcmDense bcm(24, 16, 8);
  bcm.init(rng);
  const Tensor x = random_tensor({24}, rng);
  const Tensor y = bcm.forward(x);

  const auto w = bcm.to_dense();
  for (std::size_t o = 0; o < 16; ++o) {
    float acc = bcm.bias()[o];
    for (std::size_t i = 0; i < 24; ++i) acc += w[o * 24 + i] * x[i];
    EXPECT_NEAR(y[o], acc, 1e-4f) << o;
  }
}

TEST(BcmDense, StorageIsKTimesSmaller) {
  BcmDense bcm(256, 256, 128, /*bias=*/false);
  EXPECT_EQ(bcm.stored_weights(), 256u * 256u / 128u);
}

TEST(BcmDense, PaddedStorage) {
  // 3520 pads to 3584 = 28 blocks of 128; one block row.
  BcmDense bcm(3520, 128, 128, /*bias=*/false);
  EXPECT_EQ(bcm.blocks_in(), 28u);
  EXPECT_EQ(bcm.blocks_out(), 1u);
  EXPECT_EQ(bcm.stored_weights(), 28u * 128u);
}

TEST(BcmDense, RejectsBadBlock) {
  EXPECT_THROW(BcmDense(16, 10, 8), Error);   // out not divisible
  EXPECT_THROW(BcmDense(16, 12, 12), Error);  // not a power of two
}

// ---- model container -------------------------------------------------------

TEST(Model, ForwardShapesChain) {
  Rng rng(11);
  Model m;
  m.add<Conv2D>(1, 4, 3, 3)->init(rng);
  m.add<ReLU>();
  m.add<MaxPool2D>();
  m.add<Flatten>();
  m.add<Dense>(4 * 3 * 3, 5)->init(rng);
  const auto out_shape = m.output_shape({1, 8, 8});
  ASSERT_EQ(out_shape.size(), 1u);
  EXPECT_EQ(out_shape[0], 5u);
  const Tensor y = m.forward(random_tensor({1, 8, 8}, rng));
  EXPECT_EQ(y.size(), 5u);
}

TEST(Model, SaveLoadRoundTrip) {
  Rng rng(12);
  Model a;
  a.add<Dense>(6, 4)->init(rng);
  a.add<ReLU>();
  a.add<Dense>(4, 3)->init(rng);

  std::stringstream buf;
  a.save_weights(buf);

  Model b;
  b.add<Dense>(6, 4);
  b.add<ReLU>();
  b.add<Dense>(4, 3);
  b.load_weights(buf);

  const Tensor x = random_tensor({6}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Model, LoadRejectsMismatch) {
  Rng rng(13);
  Model a;
  a.add<Dense>(6, 4)->init(rng);
  std::stringstream buf;
  a.save_weights(buf);
  Model b;
  b.add<Dense>(6, 5);
  EXPECT_THROW(b.load_weights(buf), Error);
}

TEST(Model, ZeroGradClearsAll) {
  Rng rng(14);
  Model m;
  auto* d = m.add<Dense>(3, 2);
  d->init(rng);
  m.forward(random_tensor({3}, rng));
  Tensor dy({2});
  dy.fill(1.0f);
  m.backward(dy);
  bool any_nonzero = false;
  for (auto& p : m.params()) {
    for (float g : p.grad) any_nonzero |= g != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (auto& p : m.params()) {
    for (float g : p.grad) EXPECT_EQ(g, 0.0f);
  }
}

TEST(Conv2D, ShapeMaskReducesStoredWeights) {
  Conv2D c(6, 16, 5, 5);
  const std::size_t full = c.stored_weights();
  std::vector<bool> mask(25, false);
  for (int i = 0; i < 13; ++i) mask[static_cast<std::size_t>(i)] = true;
  c.set_shape_mask(mask);
  EXPECT_EQ(c.live_positions(), 13u);
  EXPECT_LT(c.stored_weights(), full);
  EXPECT_EQ(c.stored_weights(), 16u * 6u * 13u + 16u);
}

TEST(Conv2D, OutputShape) {
  Conv2D c(1, 6, 5, 5);
  const auto s = c.output_shape({1, 28, 28});
  EXPECT_EQ(s, (std::vector<std::size_t>{6, 24, 24}));
}

TEST(Conv1D, OutputShape) {
  Conv1D c(1, 32, 12);
  const auto s = c.output_shape({1, 121});
  EXPECT_EQ(s, (std::vector<std::size_t>{32, 110}));
}

}  // namespace
}  // namespace ehdnn::nn
