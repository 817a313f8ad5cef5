#include "core/rad/search.h"

#include "compress/structured.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "train/trainer.h"
#include "util/check.h"

namespace ehdnn::rad {

nn::Model build_candidate(const Candidate& c, std::size_t num_classes, Rng& rng) {
  // 28x28 -> conv(5x5) -> pool -> conv(5x5) -> pool -> flatten -> BCM FC -> FC
  const std::size_t flat = c.conv2_filters * 4 * 4;
  check(c.fc_width % c.bcm_block == 0, "candidate: fc_width must be a multiple of the block");
  nn::Model m;
  auto* c1 = m.add<nn::Conv2D>(1, c.conv1_filters, 5, 5);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  auto* c2 = m.add<nn::Conv2D>(c.conv1_filters, c.conv2_filters, 5, 5);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  auto* f1 = m.add<nn::BcmDense>(flat, c.fc_width, c.bcm_block);
  m.add<nn::ReLU>();
  auto* f2 = m.add<nn::Dense>(c.fc_width, num_classes);
  c1->init(rng);
  c2->init(rng);
  f1->init(rng);
  f2->init(rng);
  if (c.prune_keep < 25) cmp::project_shape_sparse(*c2, c.prune_keep);
  return m;
}

SearchResult search(const data::TrainTest& data, const SearchConfig& cfg, Rng& rng) {
  std::vector<Candidate> grid = cfg.grid;
  if (grid.empty()) {
    for (std::size_t c1 : {4u, 6u, 8u}) {
      for (std::size_t fc : {128u, 256u}) {
        for (std::size_t blk : {64u, 128u}) {
          if (fc % blk != 0) continue;
          grid.push_back({c1, 16, fc, blk, 13});
        }
      }
    }
  }

  SearchResult res;
  float best_acc = -2.0f;
  for (const Candidate& cand : grid) {
    ScoredCandidate sc;
    sc.cand = cand;

    // Hard resource gates first (cheap: no training involved).
    nn::Model probe = build_candidate(cand, cfg.num_classes, rng);
    sc.resources = estimate(probe, {1, 28, 28});
    sc.feasible = sc.resources.fits() &&
                  sc.resources.fram_bytes <= cfg.max_fram_bytes &&
                  sc.resources.latency_s <= cfg.max_latency_s;
    if (sc.feasible) {
      nn::Model m = build_candidate(cand, cfg.num_classes, rng);
      train::FitConfig fit_cfg;
      fit_cfg.epochs = cfg.quick_epochs;
      fit_cfg.batch_size = cfg.batch_size;
      train::fit(m, data.train, fit_cfg, rng);
      sc.quick_accuracy = train::evaluate(m, data.test).accuracy;
      if (sc.quick_accuracy > best_acc) {
        best_acc = sc.quick_accuracy;
        res.best = cand;
      }
    }
    res.scored.push_back(sc);
  }
  check(best_acc >= 0.0f, "search: no feasible candidate");
  return res;
}

}  // namespace ehdnn::rad
