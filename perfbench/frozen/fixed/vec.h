// Vector helpers over q15 spans: the software reference implementations of
// the LEA vector op set (ADD, MPY, MAC, SHIFT, SCALE). The device model in
// src/device wraps these with cycle/energy accounting; ACE's correctness is
// validated against these same kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fixed/q15.h"

namespace ehdnn::fx {

// Element-wise saturating addition: out[i] = a[i] + b[i].
inline void vec_add(std::span<const q15_t> a, std::span<const q15_t> b, std::span<q15_t> out,
                    SatStats* stats = nullptr) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = add_sat(a[i], b[i], stats);
}

// Element-wise fractional multiply: out[i] = a[i] * b[i].
inline void vec_mpy(std::span<const q15_t> a, std::span<const q15_t> b, std::span<q15_t> out,
                    SatStats* stats = nullptr) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mul_q15(a[i], b[i], stats);
}

// Multiply-accumulate: returns sum_i a[i]*b[i] as a wide Q30-scaled value.
// This mirrors the LEA MAC which keeps a 32-bit accumulator; we widen to
// 64 bits so the *simulation* never wraps, and report whether the value
// exceeded the 32-bit accumulator the real hardware has.
struct MacResult {
  std::int64_t acc_q30 = 0;    // sum of Q30 products
  bool overflowed_q31 = false; // true if a real LEA accumulator would wrap
};

inline MacResult vec_mac(std::span<const q15_t> a, std::span<const q15_t> b) {
  MacResult r;
  for (std::size_t i = 0; i < a.size(); ++i) {
    r.acc_q30 += mul_q30(a[i], b[i]);
    if (r.acc_q30 > std::numeric_limits<q31_t>::max() ||
        r.acc_q30 < std::numeric_limits<q31_t>::min()) {
      r.overflowed_q31 = true;
    }
  }
  return r;
}

// Arithmetic shift of each element (LEA SHIFT).
inline void vec_shift(std::span<const q15_t> a, int left_shift, std::span<q15_t> out,
                      SatStats* stats = nullptr) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = shift_sat(a[i], left_shift, stats);
}

// Scale by a q15 constant (LEA SCALE).
inline void vec_scale(std::span<const q15_t> a, q15_t c, std::span<q15_t> out,
                      SatStats* stats = nullptr) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = mul_q15(a[i], c, stats);
}

// Float <-> q15 conversion of whole buffers.
inline std::vector<q15_t> quantize(std::span<const float> x, SatStats* stats = nullptr) {
  std::vector<q15_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = to_q15(x[i], stats);
  return out;
}

inline std::vector<float> dequantize(std::span<const q15_t> x) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = to_float(x[i]);
  return out;
}

}  // namespace ehdnn::fx
