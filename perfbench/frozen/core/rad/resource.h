// Resource estimation for RAD's architecture search (paper SSIII-A).
//
// "The model must fit into the FRAM with acceptable inference time and
// accuracy." Instead of hand-maintained analytic formulas that would
// drift from the runtime, the estimator compiles the candidate onto a
// scratch device and runs one inference under continuous power: latency
// and energy are data-independent (fixed loop bounds), so a single run
// with dummy weights is the exact number.
#pragma once

#include "device/device.h"
#include "nn/model.h"
#include "quant/qmodel.h"

namespace ehdnn::rad {

struct ResourceReport {
  bool fits_sram = false;
  bool fits_fram = false;
  std::size_t fram_bytes = 0;   // weights + activation buffers + control
  std::size_t sram_words = 0;   // scratch plan peak
  std::size_t weight_bytes = 0; // model weights alone
  double latency_s = 0.0;       // continuous-power inference
  double energy_j = 0.0;

  bool fits() const { return fits_sram && fits_fram; }
};

// Estimates resources for an (untrained is fine) float model.
ResourceReport estimate(nn::Model& model, const std::vector<std::size_t>& input_shape,
                        const dev::DeviceConfig& dev_cfg = {});

// Same, for an already-quantized model.
ResourceReport estimate(const quant::QuantModel& qm, const dev::DeviceConfig& dev_cfg = {});

}  // namespace ehdnn::rad
