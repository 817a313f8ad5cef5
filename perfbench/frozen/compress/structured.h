// Structured pruning primitives (paper SSII "Structured Pruning").
//
// The shape we implement is the paper's "filter shape" sparsity for
// Conv2D: a pruned kernel position (r, s) is zero across every filter and
// input channel, so the on-device window gather simply skips it for every
// window — no per-weight index storage (that is what makes the sparsity
// "hardware friendly"). Keeping 13 of 25 positions realizes the ~2x CONV
// compression of Table II's MNIST model.
#pragma once

#include <vector>

#include "nn/conv.h"

namespace ehdnn::cmp {

// L2 importance of each kernel position aggregated over filters and
// channels; row-major (kh*kw).
std::vector<double> position_importance(const nn::Conv2D& conv);

// Mask keeping the `keep` most important positions.
std::vector<bool> top_positions_mask(const nn::Conv2D& conv, std::size_t keep);

// Euclidean projection of the conv weights onto the "at most `keep` live
// kernel positions" set: zeroes everything outside the top-k positions and
// records the mask on the layer.
void project_shape_sparse(nn::Conv2D& conv, std::size_t keep);

// Achieved compression factor = total positions / live positions.
double shape_compression(const nn::Conv2D& conv);

}  // namespace ehdnn::cmp
