// Post-training 16-bit fixed-point quantization with range calibration
// (RAD's "fixed point calculation" + "normalization" stages, paper SSIII-A).
//
// Calibration runs the float model over a sample set, records each layer's
// peak |activation|, and picks power-of-two scales so every stored value
// fits in [-1, 1) q15 — the range RAD's normalization guarantees. Weight
// exponents may be negative (small weights use the full 15 fractional
// bits), activation exponents are >= 0.
#pragma once

#include <span>

#include "data/dataset.h"
#include "nn/model.h"
#include "quant/qmodel.h"

namespace ehdnn::quant {

struct QuantizeOptions {
  // Headroom multiplier on calibrated activation maxima; > 1 tolerates
  // mild distribution shift between calibration and deployment.
  double headroom = 1.25;
  std::string model_name = "model";
};

// Quantizes `model` (a trained float model built from the nn layer set)
// using `calib` samples for activation-range calibration.
QuantModel quantize(nn::Model& model, std::span<const nn::Tensor> calib,
                    const std::vector<std::size_t>& input_shape,
                    const QuantizeOptions& opts = {});

// Convenience: quantize a float input tensor into the model's input scale.
std::vector<fx::q15_t> quantize_input(const QuantModel& qm, const nn::Tensor& x,
                                      fx::SatStats* stats = nullptr);

}  // namespace ehdnn::quant
