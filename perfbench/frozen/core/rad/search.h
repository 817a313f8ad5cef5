// RAD architecture search (paper SSIII-A "architecture search").
//
// A small grid search over a conv-pool-conv-pool-FC backbone family for
// 28x28 image tasks: candidates are first filtered by hard resource
// constraints (FRAM footprint, SRAM plan, estimated latency — all from the
// device-model estimator), then the survivors are quick-trained for a few
// epochs and ranked by validation accuracy. This is deliberately the
// paper's shape of search — resource feasibility *before* accuracy —
// rather than a general NAS system.
#pragma once

#include "core/rad/resource.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "util/rng.h"

namespace ehdnn::rad {

struct Candidate {
  std::size_t conv1_filters = 6;
  std::size_t conv2_filters = 16;
  std::size_t fc_width = 256;
  std::size_t bcm_block = 128;     // block size for the first FC
  std::size_t prune_keep = 13;     // live kernel positions in conv2 (of 25)
};

struct SearchConfig {
  std::vector<Candidate> grid;       // empty -> default grid
  std::size_t max_fram_bytes = 256 * 1024;
  double max_latency_s = 1.0;
  int quick_epochs = 2;
  std::size_t batch_size = 16;
  std::size_t num_classes = 10;
};

struct ScoredCandidate {
  Candidate cand;
  ResourceReport resources;
  float quick_accuracy = -1.0f;  // -1: rejected before training
  bool feasible = false;
};

struct SearchResult {
  Candidate best;
  std::vector<ScoredCandidate> scored;
};

// Builds the backbone for a candidate (28x28 single-channel input).
nn::Model build_candidate(const Candidate& c, std::size_t num_classes, Rng& rng);

SearchResult search(const data::TrainTest& data, const SearchConfig& cfg, Rng& rng);

}  // namespace ehdnn::rad
