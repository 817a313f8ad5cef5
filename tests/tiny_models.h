// The miniature models the runtime tests share (ace, executor, flex,
// crash-fuzz and scheduler suites): the BCM-compressed model and its
// dense twin of models/tiny.h, under the names the suites use.
#pragma once

#include "models/tiny.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "quant/quantize.h"

namespace ehdnn::testutil {

using models::random_tensor;
inline constexpr auto& mixed_model = models::tiny_compressed_qmodel;
inline constexpr auto& dense_model = models::tiny_dense_qmodel;

}  // namespace ehdnn::testutil
