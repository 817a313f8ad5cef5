// Quickstart: the whole ehdnn flow in one page.
//
//   1. generate a (synthetic) dataset,
//   2. RAD: train a compressed model and quantize it to 16-bit fixed point,
//   3. ACE: compile it onto the simulated MSP430FR5994-class device,
//   4. run inference on bench power,
//   5. FLEX: run the same inference on harvested power with failures.
//
// Build & run:  ./build/examples/quickstart

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
  Rng rng(2024);

  // --- RAD: train + compress + quantize (small budget for a quick demo) --
  rad::RadConfig cfg;
  cfg.task = models::Task::kMnist;
  cfg.train_samples = 500;
  cfg.test_samples = 150;
  cfg.epochs = 4;
  cfg.sgd.lr = 0.02f;
  cfg.sgd.clip_norm = 1.0f;
  std::printf("[RAD] training the Table-II MNIST model (BCM k=128 FC, pruned conv)...\n");
  rad::RadResult rad_out = rad::run_rad(cfg, rng);
  std::printf("[RAD] float accuracy %.1f%%, 16-bit fixed-point accuracy %.1f%%\n",
              100.0 * rad_out.float_accuracy, 100.0 * rad_out.quant_accuracy);
  std::printf("[RAD] deployable weights: %zu KiB (dense equivalent would be ~%d KiB)\n",
              rad_out.qmodel.weight_bytes() / 1024, (150 * 1024 + 512) / 1024);

  // --- ACE: compile onto the device --------------------------------------
  dev::Device device;
  power::ContinuousPower bench_power;
  device.attach_supply(&bench_power);
  const ace::CompiledModel cm = ace::compile(rad_out.qmodel, device);
  std::printf("[ACE] FRAM used: %zu KiB of 256 KiB; SRAM scratch: %zu of 4096 words\n",
              cm.fram_words_used * 2 / 1024, cm.sram.total_words);

  // --- continuous-power inference ----------------------------------------
  const auto& sample = rad_out.data.test.x[0];
  const auto qin = quant::quantize_input(rad_out.qmodel, sample);
  const auto ace_policy = flex::make_ace_policy();
  const flex::RunStats cont = flex::IntermittentExecutor(*ace_policy).run(device, cm, qin);
  const auto logits = std::vector<float>(cont.output.begin(), cont.output.end());
  std::printf("[ACE] continuous power: %.2f ms, %.3f mJ, predicted class %d (label %d)\n",
              cont.on_seconds * 1e3, cont.energy_j * 1e3, train::argmax(logits),
              rad_out.data.test.y[0]);

  // --- FLEX: the same inference on harvested power ------------------------
  dev::Device eh_device;
  power::SquareSource harvest(2e-3, 0.3e-3, /*period=*/0.05, /*duty=*/0.5);
  power::CapacitorConfig ccfg;
  // Buffer scaled so one burst covers only a fraction of the inference
  // (the paper's regime; see EXPERIMENTS.md on capacitor scaling).
  ccfg.capacitance_f = 10e-6;
  power::CapacitorSupply cap(harvest, ccfg);
  eh_device.attach_supply(&cap);
  const ace::CompiledModel cm2 = ace::compile(rad_out.qmodel, eh_device);
  flex::RunOptions opts;
  opts.flex_v_warn = power::flex_warn_voltage(
      ccfg, flex::worst_checkpoint_energy(cm2, eh_device.cost()));
  const auto flex_policy = flex::make_flex_policy();
  const flex::RunStats inter =
      flex::IntermittentExecutor(*flex_policy).run(eh_device, cm2, qin, opts);
  std::printf(
      "[FLEX] harvested power: completed=%s through %ld power failures,\n"
      "       on-time %.2f ms (+%.1f%% vs continuous), %ld checkpoints (%.4f mJ),\n"
      "       output bit-identical to continuous: %s\n",
      inter.completed() ? "yes" : "no", inter.reboots, inter.on_seconds * 1e3,
      100.0 * (inter.on_seconds - cont.on_seconds) / cont.on_seconds, inter.checkpoints,
      inter.checkpoint_energy_j * 1e3, inter.output == cont.output ? "yes" : "NO");
  return 0;
}
