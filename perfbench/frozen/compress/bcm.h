// Block-circulant compression of fully connected layers (paper SSIII-A).
//
// Two entry points:
//   * project_to_bcm: converts a trained Dense layer into the nearest (in
//     Frobenius norm) BcmDense — each k x k block's circulant is the mean
//     along its wrapped diagonals. RAD uses this as the warm start before
//     BCM-aware finetuning.
//   * storage accounting used by Table I and the resource estimator.
#pragma once

#include <memory>

#include "nn/bcm_dense.h"
#include "nn/dense.h"

namespace ehdnn::cmp {

// Least-squares projection of a dense weight matrix onto the block-
// circulant set. The source layer's bias (if any) is copied through.
std::unique_ptr<nn::BcmDense> project_to_bcm(const nn::Dense& dense, std::size_t block);

// Frobenius-norm relative projection error ||W - BCM(W)|| / ||W||; a cheap
// indicator RAD's architecture search uses when choosing block sizes.
double bcm_projection_error(const nn::Dense& dense, std::size_t block);

// Storage accounting for a logical (rows x cols) FC layer at `bits`-bit
// weights (Table I uses rows = cols = 512, bits = 16).
std::size_t dense_storage_bytes(std::size_t rows, std::size_t cols, int bits = 16);
std::size_t bcm_storage_bytes(std::size_t rows, std::size_t cols, std::size_t block,
                              int bits = 16);

}  // namespace ehdnn::cmp
