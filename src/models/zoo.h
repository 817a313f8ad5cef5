// The paper's DNN models (Table II) plus the LeNet-5 of Fig. 3, built with
// the exact layer shapes, and their compression plans.
//
//  MNIST: Conv 6@5x5 -> pool -> Conv 16@5x5 (shape-pruned ~2x) -> pool ->
//         FC 256x256 (BCM k=128) -> FC 256x10
//  HAR:   Conv1D 32@12 over (1,121) -> FC 3520x128 (BCM k=128) ->
//         FC 128x64 (BCM k=64) -> FC 64x6
//  OKG:   Conv 6@5x5 over (1,28,28) -> FC 3456x512 (BCM k=256) ->
//         FC 512x256 (BCM k=128) -> FC 256x128 (BCM k=64) -> FC 128x12
//
// Input-shape choices that the paper leaves implicit are documented in
// DESIGN.md SS3.
#pragma once

#include <string>

#include "device/device.h"
#include "nn/model.h"
#include "quant/qmodel.h"

namespace ehdnn::models {

enum class Task { kMnist, kHar, kOkg };

const char* task_name(Task t);

// CLI/config-facing task keys ("mnist"|"har"|"okg"); throws ehdnn::Error
// on anything else. Shared by scenario_runner, fleet_runner, and the
// fleet config parser so the accepted names cannot drift.
Task parse_task(const std::string& name);

struct ModelInfo {
  Task task;
  std::vector<std::size_t> input_shape;
  std::size_t num_classes;
  // Index of the Conv2D layer that receives structured pruning (or -1).
  int pruned_conv_layer = -1;
  std::size_t prune_keep_positions = 0;
};

// Compressed (deployment) models exactly as Table II describes. `rng`
// seeds weight initialization; training happens afterwards.
nn::Model make_mnist_model(Rng& rng, ModelInfo* info = nullptr);
nn::Model make_har_model(Rng& rng, ModelInfo* info = nullptr);
nn::Model make_okg_model(Rng& rng, ModelInfo* info = nullptr);
nn::Model make_model(Task t, Rng& rng, ModelInfo* info = nullptr);

// Uncompressed twins (plain Dense everywhere, no pruning): what the
// SONIC/TAILS baselines execute (they have no BCM support), and the
// "Original Size" column of Table II.
nn::Model make_mnist_dense(Rng& rng);
nn::Model make_har_dense(Rng& rng);
nn::Model make_okg_dense(Rng& rng);
nn::Model make_dense_model(Task t, Rng& rng);

// LeNet-5-style model of Fig. 3 (quickstart / dataflow example).
nn::Model make_lenet5(Rng& rng);

ModelInfo model_info(Task t);

// A tensor of `shape` with entries uniform in [-0.9, 0.9) — the
// RAD-normalized activation range the models are calibrated on.
nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng);

// Deployment-ready quantized instance of a zoo model: builds the network
// (`compressed` selects the Table II BCM/pruned deployment model vs the
// dense baseline twin), applies the structured-pruning mask, calibrates
// on RAD-normalized random tensors, and quantizes. Shared by the paper
// benches and the scenario engine so both sweep the same instances.
// Timing/energy are data-independent (fixed loop bounds), so random
// weights measure exactly what trained ones would; accuracy is Table II's
// job.
quant::QuantModel make_deployed_qmodel(Task t, bool compressed, Rng& rng);

// Device geometry the deployed models run on. The uncompressed HAR/OKG
// twins exceed the real board's 256 KB FRAM (itself a headline result —
// EXPERIMENTS.md), so baselines execute on a virtually enlarged FRAM to
// keep their time/energy measurable. One definition, shared by the paper
// benches and the scenario engine, so their cells stay comparable.
dev::DeviceConfig deployment_device_config(bool compressed);

}  // namespace ehdnn::models
