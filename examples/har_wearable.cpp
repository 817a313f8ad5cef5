// Wearable scenario: human-activity recognition on a kinetic-harvesting
// device. The harvester's output follows body motion (modelled as a sine),
// so power-failure density varies across the gait cycle; FLEX carries the
// FC-heavy HAR model (BCM-compressed 3520x128) through it.

#include <cstdio>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "core/rad/pipeline.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/monitor.h"
#include "quant/quantize.h"
#include "train/loss.h"

int main() {
  using namespace ehdnn;
  Rng rng(21);

  rad::RadConfig cfg;
  cfg.task = models::Task::kHar;
  cfg.train_samples = 500;
  cfg.test_samples = 150;
  cfg.epochs = 5;
  cfg.sgd.lr = 0.01f;
  std::printf("[HAR] training the Table-II HAR model (BCM 128x & 64x FCs)...\n");
  rad::RadResult rad_out = rad::run_rad(cfg, rng);
  std::printf("[HAR] float acc %.1f%%, quantized acc %.1f%%, weights %zu KiB\n",
              100.0 * rad_out.float_accuracy, 100.0 * rad_out.quant_accuracy,
              rad_out.qmodel.weight_bytes() / 1024);

  dev::Device device;
  // Kinetic harvest: ~1 Hz gait, mean 3 mW swinging 0..6 mW.
  power::SineSource harvest(3e-3, 3e-3, 1.0);
  power::CapacitorConfig ccfg;
  power::CapacitorSupply cap(harvest, ccfg);
  device.attach_supply(&cap);
  const auto cm = ace::compile(rad_out.qmodel, device);
  flex::RunOptions opts;
  opts.flex_v_warn = power::warn_voltage_for(
      ccfg, flex::worst_checkpoint_energy(cm, device.cost()) + 5e-6, 3.0);
  const auto policy = flex::make_flex_policy();
  flex::IntermittentExecutor ex(*policy);

  int correct = 0, completed = 0;
  constexpr int kWindows = 10;
  double total_on = 0.0, total_off = 0.0;
  for (int i = 0; i < kWindows; ++i) {
    const auto& x = rad_out.data.test.x[static_cast<std::size_t>(i)];
    const auto qin = quant::quantize_input(rad_out.qmodel, x);
    const auto st = ex.run(device, cm, qin, opts);
    if (!st.completed()) continue;
    ++completed;
    total_on += st.on_seconds;
    total_off += st.off_seconds;
    const auto logits = std::vector<float>(st.output.begin(), st.output.end());
    if (train::argmax(logits) == rad_out.data.test.y[static_cast<std::size_t>(i)]) ++correct;
  }
  std::printf(
      "[HAR] classified %d/%d windows under kinetic harvesting (%d correct),\n"
      "      mean on-time %.2f ms per window, mean recharge gap %.2f ms\n",
      completed, kWindows, correct, 1e3 * total_on / completed, 1e3 * total_off / completed);
  return 0;
}
