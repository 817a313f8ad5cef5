// ADMM-regularized structured pruning (paper SSIII-A, following ADMM-NN).
//
// The constrained problem
//
//     minimize  F(W)   subject to   W in S
//
// with S = {conv weights with at most `keep_positions` live kernel
// positions} is split via ADMM into alternating steps:
//
//   W-update: SGD on F(W) + (rho/2) ||W - Z + U||^2   (a few epochs)
//   Z-update: Z = Proj_S(W + U)                        (top-k projection)
//   U-update: U = U + W - Z                            (dual ascent)
//
// After the final iteration the weights are hard-projected onto S, the
// shape mask is recorded on the layer, and the caller masked-finetunes.
#pragma once

#include "data/dataset.h"
#include "nn/conv.h"
#include "nn/model.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace ehdnn::cmp {

struct AdmmConfig {
  std::size_t keep_positions = 13;  // ~2x on a 5x5 kernel
  float rho = 5e-3f;
  int admm_iters = 3;        // outer W/Z/U alternations
  int epochs_per_iter = 1;   // SGD epochs per W-update
  int finetune_epochs = 1;   // masked finetuning after hard projection
  std::size_t batch_size = 16;
  train::SgdConfig sgd{.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f};
};

class AdmmPruner {
 public:
  // `target` must be a layer of `model`.
  AdmmPruner(nn::Conv2D& target, AdmmConfig cfg);

  // Runs the full ADMM schedule (training the whole model on `ds`),
  // hard-projects, masks and finetunes. Returns final train stats.
  train::EpochStats run(nn::Model& model, const data::Dataset& ds, Rng& rng);

  // ||W - Z||_F / ||W||_F just before the hard projection — how close the
  // ADMM iterates got to the constraint set (should shrink with iters).
  double final_violation() const { return final_violation_; }

 private:
  void z_update();
  void u_update();
  void add_penalty_grad(std::size_t batch_size);

  nn::Conv2D& conv_;
  AdmmConfig cfg_;
  std::vector<float> z_, u_;
  double final_violation_ = 0.0;
};

}  // namespace ehdnn::cmp
