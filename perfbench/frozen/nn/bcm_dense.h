// Block-circulant-matrix (BCM) fully connected layer (paper SSII / SSIII-A).
//
// The logical (out x in) weight matrix is partitioned into k x k blocks,
// each constrained to be circulant and therefore determined by its first
// column. Storage drops from out*in to (out/k)*(in/k)*k values — exactly a
// factor of k (Table I) — and each block's mat-vec becomes a circular
// convolution computed with FFTs.
//
// When in or out is not a multiple of k the layer zero-pads internally
// (e.g. OKG's 3456x512 layer with k=256 pads the input to 3584), which is
// how deployed BCM implementations handle ragged edges; padded positions
// carry zero weights and are never observable in the output.
//
// Training runs in double-precision FFTs; gradients for the first columns
// are circular correlations (see backward()). The quantized on-device
// version of this layer lives in src/core/ace.
#pragma once

#include <complex>

#include "nn/layer.h"
#include "util/rng.h"

namespace ehdnn::nn {

class BcmDense : public Layer {
 public:
  BcmDense(std::size_t in, std::size_t out, std::size_t block, bool bias = true);

  void init(Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "BcmDense"; }
  std::vector<std::size_t> output_shape(const std::vector<std::size_t>& in) const override;
  std::size_t stored_weights() const override { return cols_.size() + b_.size(); }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  std::size_t block_size() const { return k_; }
  std::size_t blocks_out() const { return p_; }  // rows of blocks
  std::size_t blocks_in() const { return q_; }   // cols of blocks

  // First column of block (i, j); length k.
  std::span<float> first_col(std::size_t i, std::size_t j) {
    return {&cols_[(i * q_ + j) * k_], k_};
  }
  std::span<const float> first_col(std::size_t i, std::size_t j) const {
    return {&cols_[(i * q_ + j) * k_], k_};
  }

  std::span<float> bias() { return b_; }
  std::span<const float> bias() const { return b_; }

  // Dense equivalent (out x in), used by tests and by projection round-trips.
  std::vector<float> to_dense() const;

 private:
  std::size_t in_, out_, k_, p_, q_, in_pad_;
  std::vector<float> cols_, gcols_;  // (p, q, k) first columns
  std::vector<float> b_, gb_;
  // Caches from forward for backward.
  std::vector<std::complex<double>> xf_;  // (q, k) spectra of input blocks
  std::vector<std::complex<double>> cf_;  // (p, q, k) spectra of first cols
  Tensor last_x_;
};

}  // namespace ehdnn::nn
