// QuantModel (de)serialization: the flashable deployment artifact.
//
// RAD runs on a host; the device receives a binary image containing the
// quantized weights, scales and layer descriptors. This is that image —
// a versioned, self-describing little-endian format the examples use to
// hand models from the training pipeline to the runtime without
// recompiling.
#pragma once

#include <iosfwd>

#include "quant/qmodel.h"

namespace ehdnn::quant {

// Binary format:
//   u32 magic 'EHQM', u32 version, u32 layer_count, i32 input_exp
//   per layer: u8 kind, i32 w_exp/in_exp/out_exp,
//              u32 dims[in_ch,out_ch,kh,kw,k,bp,bq],
//              shapes, mask, weights, bias (all length-prefixed)
void save_qmodel(const QuantModel& qm, std::ostream& os);
QuantModel load_qmodel(std::istream& is);

}  // namespace ehdnn::quant
