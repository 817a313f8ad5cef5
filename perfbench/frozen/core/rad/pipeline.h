// The end-to-end RAD pipeline (paper Fig. 1, left box): resource-aware
// model -> training -> compression (BCM + ADMM structured pruning) ->
// normalization/calibration -> 16-bit fixed-point quantization.
//
// The output QuantModel is what ACE compiles onto the device; RadResult
// also carries the accuracy/compression numbers Table II reports.
#pragma once

#include <optional>

#include "compress/admm.h"
#include "data/dataset.h"
#include "dsp/fft.h"
#include "models/zoo.h"
#include "nn/model.h"
#include "quant/qmodel.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace ehdnn::rad {

struct RadConfig {
  models::Task task = models::Task::kMnist;
  std::size_t train_samples = 1200;
  std::size_t test_samples = 400;
  int epochs = 6;
  std::size_t batch_size = 16;
  train::SgdConfig sgd{.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cmp::AdmmConfig admm;            // used only if the task prunes a conv
  std::size_t calib_samples = 64;  // quantization range calibration
  double quant_headroom = 1.25;
};

struct LayerReport {
  std::string name;
  std::size_t logical_weights = 0;  // uncompressed parameter count
  std::size_t stored_weights = 0;   // after BCM / pruning
  double compression = 1.0;
  std::string method;  // "BCM k=128", "shape pruning", "-"
};

struct RadResult {
  nn::Model model;            // trained compressed float model
  quant::QuantModel qmodel;   // deployable
  data::TrainTest data;
  float float_accuracy = 0.0f;
  float quant_accuracy = 0.0f;
  double admm_violation = 0.0;  // ||W-Z||/||W|| before hard projection
  std::vector<LayerReport> layers;
};

RadResult run_rad(const RadConfig& cfg, Rng& rng);

// Accuracy of a quantized model over a dataset (argmax of qpredict).
float quant_accuracy(const quant::QuantModel& qm, const data::Dataset& ds,
                     dsp::FftScaling scaling = dsp::FftScaling::kBlockFloat);

}  // namespace ehdnn::rad
