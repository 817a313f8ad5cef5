#include "train/trainer.h"

#include <numeric>

#include "train/loss.h"

namespace ehdnn::train {

EpochStats fit(nn::Model& model, const data::Dataset& train, const FitConfig& cfg, Rng& rng) {
  Sgd opt(cfg.sgd);
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  EpochStats stats;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    float loss_sum = 0.0f;
    std::size_t correct = 0;

    std::size_t in_batch = 0;
    for (std::size_t idx : order) {
      const auto& x = train.x[idx];
      const int label = train.y[idx];
      nn::Tensor logits = model.forward(x);
      auto lg = cross_entropy(logits, label);
      loss_sum += lg.loss;
      if (argmax(logits.data()) == label) ++correct;
      model.backward(lg.grad);
      if (++in_batch == cfg.batch_size) {
        if (cfg.on_batch) cfg.on_batch(model, in_batch);
        opt.step(model, in_batch);
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      if (cfg.on_batch) cfg.on_batch(model, in_batch);
      opt.step(model, in_batch);
    }

    stats.epoch = epoch;
    stats.train_loss = loss_sum / static_cast<float>(train.size());
    stats.train_acc = static_cast<float>(correct) / static_cast<float>(train.size());
    if (cfg.on_epoch) cfg.on_epoch(model, stats);
  }
  return stats;
}

EvalResult evaluate(nn::Model& model, const data::Dataset& ds) {
  EvalResult r;
  float loss_sum = 0.0f;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    nn::Tensor logits = model.forward(ds.x[i]);
    auto lg = cross_entropy(logits, ds.y[i]);
    loss_sum += lg.loss;
    if (argmax(logits.data()) == ds.y[i]) ++correct;
  }
  r.avg_loss = loss_sum / static_cast<float>(ds.size());
  r.accuracy = static_cast<float>(correct) / static_cast<float>(ds.size());
  return r;
}

}  // namespace ehdnn::train
