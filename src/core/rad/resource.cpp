#include "core/rad/resource.h"

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "power/continuous.h"
#include "quant/quantize.h"

namespace ehdnn::rad {

ResourceReport estimate(nn::Model& model, const std::vector<std::size_t>& input_shape,
                        const dev::DeviceConfig& dev_cfg) {
  // One dummy calibration sample: scale exponents are arbitrary but the
  // cost structure (the thing being estimated) is shape-determined.
  nn::Tensor dummy(input_shape);
  const nn::Tensor calib[] = {dummy};
  quant::QuantModel qm = quant::quantize(model, calib, input_shape);
  return estimate(qm, dev_cfg);
}

ResourceReport estimate(const quant::QuantModel& qm, const dev::DeviceConfig& dev_cfg) {
  ResourceReport r;
  r.weight_bytes = qm.weight_bytes();

  dev::Device dev(dev_cfg);
  ace::CompiledModel cm;
  try {
    cm = ace::compile(qm, dev);
  } catch (const Error&) {
    // Out of SRAM or FRAM during layout: candidate rejected.
    r.fits_sram = false;
    r.fits_fram = false;
    return r;
  }
  r.fram_bytes = cm.fram_words_used * sizeof(fx::q15_t);
  r.sram_words = cm.sram.total_words;
  r.fits_sram = cm.sram.total_words <= dev.sram().size_words();
  r.fits_fram = cm.fram_words_used <= dev.fram().size_words();
  if (!r.fits()) return r;

  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  std::vector<fx::q15_t> input(qm.layers.front().in_size(), 0);
  const auto policy = flex::make_ace_policy();
  const flex::RunStats st = flex::IntermittentExecutor(*policy).run(dev, cm, input);
  r.latency_s = st.on_seconds;
  r.energy_j = st.energy_j;
  return r;
}

}  // namespace ehdnn::rad
