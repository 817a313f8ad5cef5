#include "core/rad/pipeline.h"

#include "compress/structured.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "quant/qexec.h"
#include "quant/quantize.h"
#include "train/loss.h"
#include "util/check.h"

namespace ehdnn::rad {

namespace {

data::TrainTest make_task_data(models::Task task, const RadConfig& cfg, Rng& rng) {
  switch (task) {
    case models::Task::kMnist: return data::make_mnist_like(rng, cfg.train_samples, cfg.test_samples);
    case models::Task::kHar: return data::make_har_like(rng, cfg.train_samples, cfg.test_samples);
    case models::Task::kOkg: return data::make_okg_like(rng, cfg.train_samples, cfg.test_samples);
  }
  fail("make_task_data: unknown task");
}

void collect_layer_reports(nn::Model& model, std::vector<LayerReport>& out) {
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    nn::Layer& layer = model.layer(l);
    LayerReport r;
    r.name = layer.name();
    if (auto* bcm = dynamic_cast<nn::BcmDense*>(&layer)) {
      r.logical_weights = bcm->in_features() * bcm->out_features();
      r.stored_weights = bcm->stored_weights() - bcm->bias().size();
      r.compression = static_cast<double>(bcm->block_size());
      r.method = "BCM k=" + std::to_string(bcm->block_size());
    } else if (auto* conv = dynamic_cast<nn::Conv2D*>(&layer)) {
      r.logical_weights = conv->out_channels() * conv->in_channels() * conv->kernel_h() *
                          conv->kernel_w();
      r.stored_weights = conv->stored_weights() - conv->bias().size();
      r.compression = cmp::shape_compression(*conv);
      r.method = conv->live_positions() < conv->kernel_h() * conv->kernel_w()
                     ? "shape pruning"
                     : "-";
    } else if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
      r.logical_weights = dense->in_features() * dense->out_features();
      r.stored_weights = r.logical_weights;
      r.method = "-";
    } else if (auto* c1 = dynamic_cast<nn::Conv1D*>(&layer)) {
      r.logical_weights = c1->out_channels() * c1->in_channels() * c1->kernel();
      r.stored_weights = r.logical_weights;
      r.method = "-";
    } else {
      continue;  // activation / pool / flatten
    }
    out.push_back(std::move(r));
  }
}

}  // namespace

float quant_accuracy(const quant::QuantModel& qm, const data::Dataset& ds,
                     dsp::FftScaling scaling) {
  quant::QExecOptions opts;
  opts.fft_scaling = scaling;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto logits = quant::qpredict(qm, ds.x[i], opts);
    if (train::argmax(logits) == ds.y[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(ds.size());
}

RadResult run_rad(const RadConfig& cfg, Rng& rng) {
  RadResult res;
  res.data = make_task_data(cfg.task, cfg, rng);

  models::ModelInfo info;
  res.model = models::make_model(cfg.task, rng, &info);

  // Phase 1: train the BCM-form model (compression-aware training: the FC
  // layers are block-circulant from the start, as SSIII-A's "combination
  // of BCM on FC and structured pruning on CONV").
  train::FitConfig fit_cfg;
  fit_cfg.epochs = cfg.epochs;
  fit_cfg.batch_size = cfg.batch_size;
  fit_cfg.sgd = cfg.sgd;
  train::fit(res.model, res.data.train, fit_cfg, rng);

  // Phase 2: ADMM-regularized structured pruning of the designated conv.
  if (info.pruned_conv_layer >= 0) {
    auto* conv = dynamic_cast<nn::Conv2D*>(
        &res.model.layer(static_cast<std::size_t>(info.pruned_conv_layer)));
    check(conv != nullptr, "run_rad: pruned layer is not a Conv2D");
    cmp::AdmmConfig admm_cfg = cfg.admm;
    admm_cfg.keep_positions = info.prune_keep_positions;
    cmp::AdmmPruner pruner(*conv, admm_cfg);
    pruner.run(res.model, res.data.train, rng);
    res.admm_violation = pruner.final_violation();
  }

  res.float_accuracy = train::evaluate(res.model, res.data.test).accuracy;

  // Phase 3: normalization calibration + 16-bit fixed-point quantization.
  std::vector<nn::Tensor> calib;
  for (std::size_t i = 0; i < std::min(cfg.calib_samples, res.data.train.size()); ++i) {
    calib.push_back(res.data.train.x[i]);
  }
  quant::QuantizeOptions qopts;
  qopts.headroom = cfg.quant_headroom;
  qopts.model_name = models::task_name(cfg.task);
  res.qmodel = quant::quantize(res.model, calib, info.input_shape, qopts);

  res.quant_accuracy = quant_accuracy(res.qmodel, res.data.test);
  collect_layer_reports(res.model, res.layers);
  return res;
}

}  // namespace ehdnn::rad
