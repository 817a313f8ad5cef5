// Shared plumbing for the paper-reproduction benches: model construction,
// framework dispatch, power scenarios, and the paper's reported numbers
// (EXPERIMENTS.md records measured-vs-paper for each).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "models/zoo.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/monitor.h"
#include "quant/quantize.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/table.h"

namespace ehdnn::bench {

enum class Framework { kBase, kSonic, kTails, kAceFlex, kAcePlain };

inline const char* framework_name(Framework f) {
  switch (f) {
    case Framework::kBase: return "BASE";
    case Framework::kSonic: return "SONIC";
    case Framework::kTails: return "TAILS";
    case Framework::kAceFlex: return "ACE+FLEX";
    case Framework::kAcePlain: return "ACE";
  }
  return "?";
}

// Random tensor in the RAD-normalized activation range.
inline nn::Tensor random_input_tensor(const std::vector<std::size_t>& shape, Rng& rng) {
  nn::Tensor t(shape);
  for (std::size_t j = 0; j < t.size(); ++j) {
    t[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

// Single-layer micro workload shared by micro_kernels and perf_harness,
// so both measure the same quantized kernel instance (same seeds, same
// calibration) and can't silently drift apart.
struct LayerWorkload {
  quant::QuantModel qm;
  std::vector<fx::q15_t> qin;
};

inline LayerWorkload make_layer_workload(nn::Model m, const std::vector<std::size_t>& shape,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_input_tensor(shape, rng));
  LayerWorkload w;
  w.qm = quant::quantize(m, calib, shape);
  w.qin = quant::quantize_input(w.qm, random_input_tensor(shape, rng));
  return w;
}

// The canonical full-size micro workloads (BENCH_micro.json's conv2d/fc).
inline LayerWorkload conv2d_micro_workload() {
  Rng wr(1);
  nn::Model m;
  m.add<nn::Conv2D>(8, 16, 5, 5)->init(wr);
  return make_layer_workload(std::move(m), {8, 16, 16}, 11);
}

inline LayerWorkload fc_micro_workload() {
  Rng wr(2);
  nn::Model m;
  m.add<nn::Dense>(512, 128)->init(wr);
  return make_layer_workload(std::move(m), {512}, 12);
}

// Timing and energy are data-independent (fixed loop bounds), so the
// benches run randomly initialized models; accuracy is Table II's job.
// (Shared with the scenario engine — see models::make_deployed_qmodel.)
inline quant::QuantModel make_qmodel(models::Task task, bool compressed, Rng& rng) {
  return models::make_deployed_qmodel(task, compressed, rng);
}

// Device geometry for the deployed models (enlarged FRAM for the
// uncompressed baselines) — shared with the scenario engine.
inline dev::DeviceConfig device_for(bool compressed) {
  return models::deployment_device_config(compressed);
}

// Intermittent-power scenario. The paper's testbed pairs a 100 uF buffer
// with multi-second inferences, i.e. one burst covers a tiny fraction of
// an inference. Our modelled inferences are absolutely faster (tens of
// ms), so the default capacitor is scaled down to 10 uF to preserve that
// regime — burst energy (~30 uJ) a small fraction of inference energy
// (0.2-13 mJ) — which is what makes BASE/ACE unable to finish and
// exercises the checkpointing strategies exactly as in Fig. 7(b).
struct PowerSpec {
  bool continuous = true;
  double capacitance_f = 10e-6;
  double harvest_w = 1.2e-3;  // below the ~5 mW active draw: net-drain
};

// The runtime-table key (sim/scenario.h) each framework runs as; the
// table supplies both the policy and the model variant.
inline const char* runtime_key(Framework f) {
  switch (f) {
    case Framework::kBase: return "base";
    case Framework::kSonic: return "sonic";
    case Framework::kTails: return "tails";
    case Framework::kAceFlex: return "flex";
    case Framework::kAcePlain: return "ace";
  }
  return "?";
}

// Runs one inference of `task` under `fw`; BASE/SONIC/TAILS use the dense
// model, ACE/ACE+FLEX the RAD-compressed one.
inline flex::RunStats run_framework(Framework fw, models::Task task, const PowerSpec& ps,
                                    long max_reboots = 3000) {
  const bool compressed = sim::runtime_uses_compressed_model(runtime_key(fw));
  Rng rng(0xb0a710ad + static_cast<std::uint64_t>(task));
  const auto qm = make_qmodel(task, compressed, rng);

  dev::Device dev(device_for(compressed));
  power::ContinuousPower cont;
  power::ConstantSource src(ps.harvest_w);
  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = ps.capacitance_f;
  power::CapacitorSupply cap(src, ccfg);
  dev.attach_supply(ps.continuous ? static_cast<dev::PowerSupply*>(&cont) : &cap);

  const auto cm = ace::compile(qm, dev);
  std::vector<fx::q15_t> input(qm.layers.front().in_size());
  for (auto& v : input) v = static_cast<fx::q15_t>(rng.next_u64());

  flex::RunOptions opts;
  opts.max_reboots = max_reboots;
  if (!ps.continuous) {
    opts.flex_v_warn =
        power::flex_warn_voltage(ccfg, flex::worst_checkpoint_energy(cm, dev.cost()));
  }
  const auto policy = sim::make_policy(runtime_key(fw));
  return flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
}

inline std::string ms(double seconds) { return Table::num(seconds * 1e3, 2) + " ms"; }
inline std::string mj(double joules) { return Table::num(joules * 1e3, 3) + " mJ"; }

}  // namespace ehdnn::bench
