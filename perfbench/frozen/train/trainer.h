// Mini-batch training driver and evaluation.
#pragma once

#include <functional>

#include "data/dataset.h"
#include "nn/model.h"
#include "train/sgd.h"
#include "util/rng.h"

namespace ehdnn::train {

struct EpochStats {
  int epoch = 0;
  float train_loss = 0.0f;
  float train_acc = 0.0f;
};

struct FitConfig {
  int epochs = 5;
  std::size_t batch_size = 16;
  SgdConfig sgd;
  // Optional hook called right before each optimizer step, with the batch
  // size the accumulated gradients cover. ADMM uses it to add the
  // rho*(W - Z + U) regularization gradient.
  std::function<void(nn::Model&, std::size_t)> on_batch;
  // Optional per-epoch hook (ADMM dual updates, logging, ...). Called
  // after the last optimizer step of each epoch.
  std::function<void(nn::Model&, const EpochStats&)> on_epoch;
};

// Trains in place; returns last epoch's stats.
EpochStats fit(nn::Model& model, const data::Dataset& train, const FitConfig& cfg, Rng& rng);

struct EvalResult {
  float accuracy = 0.0f;
  float avg_loss = 0.0f;
};

EvalResult evaluate(nn::Model& model, const data::Dataset& ds);

}  // namespace ehdnn::train
