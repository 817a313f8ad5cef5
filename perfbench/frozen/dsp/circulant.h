// Circulant-matrix arithmetic: the computational core of BCM layers.
//
// A k x k circulant matrix C = circ(c) is defined by its first column c:
// C[i][j] = c[(i - j) mod k], so C*x equals the circular convolution
// c (*) x, which the FFT diagonalizes:
//
//     C * x = IFFT( FFT(c) o FFT(x) )          (paper SSII, Algorithm 1)
//
// This header provides the double-precision reference (used in training and
// tests) and the Q15 path that models what ACE runs on the LEA, including
// Algorithm 1's SCALE-DOWN / SCALE-UP handled as exact power-of-two
// exponent bookkeeping.
#pragma once

#include <span>
#include <vector>

#include "dsp/fft.h"
#include "fixed/cq15.h"
#include "fixed/q15.h"

namespace ehdnn::dsp {

// Naive O(k^2) circular convolution (test oracle / training reference).
std::vector<double> circ_conv_ref(std::span<const double> c, std::span<const double> x);
// Allocation-free overload for bench loops: y must have c.size() elements.
void circ_conv_ref(std::span<const double> c, std::span<const double> x,
                   std::span<double> y);

// Reusable scratch for the double-precision FFT path: hoist one of these
// out of a loop and every iteration runs allocation-free (buffers grow
// once to the largest k seen).
struct CirculantScratch {
  std::vector<std::complex<double>> fc, fx;
};

// FFT-based C*x in double precision; k must be a power of two.
std::vector<double> circulant_matvec(std::span<const double> first_col,
                                     std::span<const double> x);
// Allocation-free overload: y must have first_col.size() elements.
void circulant_matvec(std::span<const double> first_col, std::span<const double> x,
                      CirculantScratch& scratch, std::span<double> y);

// Q15 circulant mat-vec result before the final narrowing: interleaved
// real values plus the exponent such that true value = data * 2^exponent.
struct ScaledVecQ15 {
  std::vector<fx::q15_t> data;
  int exponent = 0;
};

// Block-floating-point product guard. After a BFP FFT each spectrum
// component sits anywhere below 1.0, so the complex product
// re = a.re*b.re - a.im*b.im can reach magnitude 2.0 and saturate. This
// pure decision function — shared verbatim by the software executor and
// the on-device kernel so both stay bit-identical — computes how many
// 1-bit right-shifts each operand needs (largest first) until the product
// bound 2*m_w*m_x fits q15. Inputs are the max |component| of each buffer.
struct GuardShifts {
  int w = 0;  // shifts for the weight spectrum
  int x = 0;  // shifts for the activation spectrum
};
GuardShifts product_guard(int max_w, int max_x);

// Q15 C*x as ACE executes it on the LEA (Algorithm 1):
//   1. complexify c and x               (COMPLEX)
//   2. forward FFT both                 (FFT, scaled -> SCALE-DOWN by len)
//   3. element-wise complex multiply    (MPY)
//   4. inverse FFT                      (IFFT)
//   5. take real part                   (REAL)
// The combined exponent is returned so the caller can SCALE-UP (narrow)
// once after accumulating all blocks of a row.
ScaledVecQ15 circulant_matvec_q15(std::span<const fx::q15_t> first_col,
                                  std::span<const fx::q15_t> x, FftScaling scaling,
                                  fx::SatStats* stats = nullptr);

// Reusable scratch for the q15 path (complex work buffers + the output
// staging): lets constraint-heavy inner loops (qexec's per-block calls,
// bench sweeps) run with zero steady-state allocations.
struct CirculantScratchQ15 {
  std::vector<fx::cq15> cw, cx;
};

// Allocation-free overload: writes the un-narrowed real parts into `out`
// (first_col.size() elements) and returns the combined exponent.
int circulant_matvec_q15(std::span<const fx::q15_t> first_col, std::span<const fx::q15_t> x,
                         FftScaling scaling, CirculantScratchQ15& scratch,
                         std::span<fx::q15_t> out, fx::SatStats* stats = nullptr);

// Narrow a scaled vector to plain q15 (value domain [-1, 1)), applying the
// exponent with rounding and saturation. This is Algorithm 1's SCALE-UP.
std::vector<fx::q15_t> narrow(const ScaledVecQ15& v, fx::SatStats* stats = nullptr);

}  // namespace ehdnn::dsp
