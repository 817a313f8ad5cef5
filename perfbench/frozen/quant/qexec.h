// Software reference executor for QuantModel.
//
// Runs the exact fixed-point arithmetic the device will run (same kernels,
// same shifts, same FFT scaling discipline) but without any device state or
// cost accounting. Three roles:
//   * measure accuracy after quantization (Table II),
//   * serve as the bit-exactness oracle for the ACE device runtime and for
//     the intermittent engines (their outputs must match this, bit for bit),
//   * quantify overflow behaviour (SatStats) for the overflow ablation.
#pragma once

#include <span>
#include <vector>

#include "dsp/fft.h"
#include "nn/tensor.h"
#include "quant/qmodel.h"

namespace ehdnn::quant {

struct QExecOptions {
  // Library-wide default is block floating point (max precision); pass
  // kFixedScale for the paper's literal Algorithm 1 (SCALE-DOWN by len),
  // whose coarser output resolution the ablation bench quantifies. The
  // intermittent runtimes (core/flex RunOptions) use the same default so
  // oracle-vs-device comparisons line up.
  dsp::FftScaling fft_scaling = dsp::FftScaling::kBlockFloat;
  fx::SatStats* stats = nullptr;
  // When false, skips Algorithm 1's SCALE-DOWN/SCALE-UP bookkeeping and
  // runs the BCM FFT unscaled — demonstrates the overflow failure mode the
  // paper's overflow-aware computation exists to prevent.
  bool overflow_aware = true;
};

// Runs one layer; exposed for layer-level tests and benches.
std::vector<fx::q15_t> qforward_layer(const QLayer& layer, std::span<const fx::q15_t> input,
                                      const QExecOptions& opts = {});

// Full-model forward; returns the final layer's q15 activations.
std::vector<fx::q15_t> qforward(const QuantModel& qm, std::span<const fx::q15_t> input,
                                const QExecOptions& opts = {});

// Convenience: float input -> class logits (dequantized by the final
// layer's out_exp).
std::vector<float> qpredict(const QuantModel& qm, const nn::Tensor& x,
                            const QExecOptions& opts = {});

}  // namespace ehdnn::quant
