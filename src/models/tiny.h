// The miniature deployment pair the runtime tests and the contract
// checker share: a BCM-compressed model and its dense twin on one
// 1x10x10 input — small enough for thousands of runs, big enough to hit
// every kernel kind (conv, pool, BCM/FFT, dense) and every commit
// protocol and checkpoint payload. Both draw from `rng` in the same
// order: the conv, the middle FC and the last FC initializations, then
// four calibration tensors.
#pragma once

#include "models/zoo.h"
#include "quant/qmodel.h"

namespace ehdnn::models {

// Conv 2@3x3 -> ReLU -> pool -> BcmDense 32x16 (k=16) -> ReLU -> Dense 16x4.
quant::QuantModel tiny_compressed_qmodel(Rng& rng);

// The same network with a plain Dense 32x16 in place of the BCM layer.
quant::QuantModel tiny_dense_qmodel(Rng& rng);

}  // namespace ehdnn::models
