#include "compress/admm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "compress/structured.h"

namespace ehdnn::cmp {

AdmmPruner::AdmmPruner(nn::Conv2D& target, AdmmConfig cfg)
    : conv_(target),
      cfg_(cfg),
      z_(target.weights().begin(), target.weights().end()),
      u_(target.weights().size(), 0.0f) {}

void AdmmPruner::z_update() {
  // Z = Proj_S(W + U): keep the top-k kernel positions ranked by the L2
  // norm of (W + U) aggregated across filters and channels.
  const auto w = conv_.weights();
  const std::size_t kh = conv_.kernel_h(), kw = conv_.kernel_w();
  const std::size_t positions = kh * kw;

  std::vector<double> imp(positions, 0.0);
  std::vector<float> wu(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    wu[i] = w[i] + u_[i];
    imp[i % positions] += static_cast<double>(wu[i]) * wu[i];
  }

  std::vector<std::size_t> order(positions);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return imp[a] > imp[b]; });
  std::vector<bool> live(positions, false);
  for (std::size_t i = 0; i < cfg_.keep_positions; ++i) live[order[i]] = true;

  for (std::size_t i = 0; i < wu.size(); ++i) z_[i] = live[i % positions] ? wu[i] : 0.0f;
}

void AdmmPruner::u_update() {
  const auto w = conv_.weights();
  for (std::size_t i = 0; i < u_.size(); ++i) u_[i] += w[i] - z_[i];
}

void AdmmPruner::add_penalty_grad(std::size_t batch_size) {
  // Gradients are divided by batch_size inside the optimizer, so scale the
  // penalty up to keep its effective magnitude rho*(W - Z + U).
  const auto w = conv_.weights();
  auto grads = conv_.params()[0].grad;
  const float scale = cfg_.rho * static_cast<float>(batch_size);
  for (std::size_t i = 0; i < w.size(); ++i) grads[i] += scale * (w[i] - z_[i] + u_[i]);
}

train::EpochStats AdmmPruner::run(nn::Model& model, const data::Dataset& ds, Rng& rng) {
  train::FitConfig fit_cfg;
  fit_cfg.epochs = cfg_.epochs_per_iter;
  fit_cfg.batch_size = cfg_.batch_size;
  fit_cfg.sgd = cfg_.sgd;
  fit_cfg.on_batch = [this](nn::Model&, std::size_t bs) { add_penalty_grad(bs); };

  train::EpochStats stats;
  for (int it = 0; it < cfg_.admm_iters; ++it) {
    stats = train::fit(model, ds, fit_cfg, rng);  // W-update
    z_update();
    u_update();
  }

  // Record how far W sits from the constraint set, then hard-project.
  {
    const auto w = conv_.weights();
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double d = static_cast<double>(w[i]) - z_[i];
      num += d * d;
      den += static_cast<double>(w[i]) * w[i];
    }
    final_violation_ = den > 0.0 ? std::sqrt(num / den) : 0.0;
  }

  project_shape_sparse(conv_, cfg_.keep_positions);

  if (cfg_.finetune_epochs > 0) {
    train::FitConfig ft;
    ft.epochs = cfg_.finetune_epochs;
    ft.batch_size = cfg_.batch_size;
    ft.sgd = cfg_.sgd;
    ft.sgd.lr *= 0.5f;  // gentler masked finetune
    stats = train::fit(model, ds, ft, rng);
  }
  return stats;
}

}  // namespace ehdnn::cmp
