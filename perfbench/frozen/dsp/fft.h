// FFT / IFFT kernels.
//
// Three implementations live here:
//   * a double-precision reference (used by training and as a test oracle),
//   * a naive O(N^2) DFT (oracle for the oracles),
//   * the Q15 fixed-point radix-2 FFT that models the LEA's complex FFT.
//
// The Q15 transform supports two scaling disciplines:
//   * kFixedScale — divide both butterfly outputs by 2 at every stage
//     (the LEA's "scale by two" mode). Output = DFT(x)/N, exponent +log2 N.
//     This is what the paper's Algorithm 1 relies on (SCALE-DOWN by length).
//   * kBlockFloat — block-floating-point: shift only when the next stage
//     could overflow, and report how many shifts happened. Maximum
//     precision; used to quantify how much accuracy Algorithm 1's fixed
//     scaling costs (bench/ablation_overflow).
//
// Exponent convention: if the caller's buffer holds value v = raw * 2^e0,
// then after fft_q15 the buffer holds DFT(v) = raw' * 2^(e0 + delta) where
// delta is the returned exponent increment. ifft_q15 is implemented by the
// conjugation identity IDFT(X) = conj(DFT(conj(X))) / N and returns its own
// (possibly negative) increment.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fixed/cq15.h"
#include "fixed/q15.h"

namespace ehdnn::dsp {

enum class FftScaling {
  kFixedScale,  // >>1 each stage; overflow-proof; exponent += log2(N)
  kBlockFloat,  // shift on demand; exponent += number of shifts taken
  kNone,        // no scaling; saturates on large inputs (overflow ablation)
};

// --- double-precision reference -------------------------------------------

// In-place iterative radix-2 DIT FFT. n must be a power of two.
void fft(std::span<std::complex<double>> data);
void ifft(std::span<std::complex<double>> data);  // includes the 1/N factor

// Naive O(N^2) DFT used as the correctness oracle in tests (any n).
std::vector<std::complex<double>> dft_naive(std::span<const std::complex<double>> x);

// --- Q15 fixed point (LEA model) ------------------------------------------

// In-place FFT over interleaved complex q15. Returns the exponent increment
// (see header comment). `stats` counts saturations (kBlockFloat should
// produce none; kFixedScale cannot saturate by construction).
int fft_q15(std::span<fx::cq15> data, FftScaling scaling, fx::SatStats* stats = nullptr);

// In-place inverse FFT (true IDFT including 1/N), same conventions.
int ifft_q15(std::span<fx::cq15> data, FftScaling scaling, fx::SatStats* stats = nullptr);

// Precomputed per-size transform plan: the q15 twiddle ROM plus the
// bit-reversal permutation as an explicit swap list, so fft_q15 performs
// zero per-call setup arithmetic. Plans are built once per size in a
// mutex-guarded cache and live behind stable storage, so the returned
// reference stays valid forever — safe under concurrent first-touch from
// multiple threads and immune to any future cache-container rehash/move.
struct FftPlan {
  std::size_t n = 0;
  std::vector<fx::cq15> twiddles;  // W_n^k = exp(-2*pi*i*k/n), k in [0, n/2)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;  // bit-reversal, i < j
};
const FftPlan& fft_plan(std::size_t n);

// Twiddle table view of the plan (the reference for the LEA's ROM twiddle
// tables). Kept for callers that only need the ROM.
const std::vector<fx::cq15>& twiddles_q15(std::size_t n);

}  // namespace ehdnn::dsp
