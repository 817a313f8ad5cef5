// Q0.15 fixed-point arithmetic (the TI LEA's native data format).
//
// A q15 value is a 16-bit signed integer `raw` representing raw / 2^15,
// i.e. the representable range is [-1.0, 1.0 - 2^-15]. All arithmetic
// saturates on overflow and can report saturation events through an
// optional SatStats counter, which the overflow-aware computation in ACE
// (paper SSIII-B) uses to validate that normalization keeps intermediates
// in range.
//
// The quantization rule matches the paper's: B = A * 2^(b-1) with b = 16.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace ehdnn::fx {

using q15_t = std::int16_t;
using q31_t = std::int32_t;

inline constexpr int kQ15Bits = 15;
inline constexpr q15_t kQ15Max = 32767;
inline constexpr q15_t kQ15Min = -32768;
inline constexpr double kQ15One = 32768.0;  // 2^15

// Counts saturation events so callers can assert overflow-freedom.
struct SatStats {
  long long saturations = 0;
  void note() { ++saturations; }
  void reset() { saturations = 0; }
};

// Saturate a wide intermediate into q15 range.
inline q15_t sat16(q31_t v, SatStats* stats = nullptr) {
  if (v > kQ15Max) {
    if (stats) stats->note();
    return kQ15Max;
  }
  if (v < kQ15Min) {
    if (stats) stats->note();
    return kQ15Min;
  }
  return static_cast<q15_t>(v);
}

inline q15_t sat16(std::int64_t v, SatStats* stats = nullptr) {
  if (v > kQ15Max) {
    if (stats) stats->note();
    return kQ15Max;
  }
  if (v < kQ15Min) {
    if (stats) stats->note();
    return kQ15Min;
  }
  return static_cast<q15_t>(v);
}

// Float -> q15 with round-to-nearest (ties away from zero) and
// saturation. A rounded value at or beyond either end of the range counts
// as one saturation, the end value itself included. Branch-free, so the
// model quantizer's pass over a random-signed weight array vectorizes
// instead of mispredicting the sign: copysign picks the half-LSB bias
// (-0.0 gets -0.5 where a sign test would add +0.5; both truncate to 0),
// min/max clamp, and the conversion truncates toward zero.
inline q15_t to_q15(double x, SatStats* stats = nullptr) {
  constexpr double kHi = static_cast<double>(kQ15Max);
  constexpr double kLo = static_cast<double>(kQ15Min);
  const double scaled = x * kQ15One;
  const double rounded = scaled + std::copysign(0.5, scaled);
  if (stats) stats->saturations += (rounded >= kHi) | (rounded <= kLo);
  return static_cast<q15_t>(static_cast<q31_t>(std::min(std::max(rounded, kLo), kHi)));
}

inline double to_double(q15_t x) { return static_cast<double>(x) / kQ15One; }
inline float to_float(q15_t x) { return static_cast<float>(x) / static_cast<float>(kQ15One); }

// Saturating addition / subtraction.
inline q15_t add_sat(q15_t a, q15_t b, SatStats* stats = nullptr) {
  return sat16(static_cast<q31_t>(a) + static_cast<q31_t>(b), stats);
}

inline q15_t sub_sat(q15_t a, q15_t b, SatStats* stats = nullptr) {
  return sat16(static_cast<q31_t>(a) - static_cast<q31_t>(b), stats);
}

// q15 x q15 -> q15 with rounding (the classic fractional multiply).
// (a*b) is Q30; add half-LSB then shift right by 15. The only saturating
// case is -1 * -1 which would yield +1.0 (unrepresentable).
inline q15_t mul_q15(q15_t a, q15_t b, SatStats* stats = nullptr) {
  const q31_t prod = static_cast<q31_t>(a) * static_cast<q31_t>(b);
  return sat16((prod + (1 << (kQ15Bits - 1))) >> kQ15Bits, stats);
}

// q15 x q15 -> q31 exact product (Q30 value); used by MAC accumulators.
inline q31_t mul_q30(q15_t a, q15_t b) {
  return static_cast<q31_t>(a) * static_cast<q31_t>(b);
}

// Arithmetic shift with saturation on left shifts (the LEA SHIFT op).
inline q15_t shift_sat(q15_t a, int left_shift, SatStats* stats = nullptr) {
  if (left_shift >= 0) {
    std::int64_t v = static_cast<std::int64_t>(a) << left_shift;
    return sat16(v, stats);
  }
  const int rs = -left_shift;
  if (rs >= 16) return static_cast<q15_t>(a < 0 ? -1 : 0);
  // Round-to-nearest on right shift.
  const q31_t bias = 1 << (rs - 1);
  return static_cast<q15_t>((static_cast<q31_t>(a) + bias) >> rs);
}

// Q30 accumulator -> q15 with a right shift (rounding) and saturation.
// `rshift` is typically 15 (plain product) plus any block exponent.
inline q15_t narrow_q30(std::int64_t acc, int rshift, SatStats* stats = nullptr) {
  if (rshift > 0) {
    const std::int64_t bias = 1ll << (rshift - 1);
    acc = (acc + bias) >> rshift;
  } else if (rshift < 0) {
    acc <<= -rshift;
  }
  return sat16(acc, stats);
}

}  // namespace ehdnn::fx
