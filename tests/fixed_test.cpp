#include <gtest/gtest.h>

#include <vector>

#include "fixed/cq15.h"
#include "fixed/q15.h"
#include "fixed/vec.h"
#include "util/rng.h"

namespace ehdnn::fx {
namespace {

TEST(Q15, ConversionRoundTrip) {
  for (double v : {0.0, 0.5, -0.5, 0.25, -1.0, 0.999969482421875}) {
    EXPECT_NEAR(to_double(to_q15(v)), v, 1.0 / kQ15One);
  }
}

TEST(Q15, ConversionSaturates) {
  SatStats stats;
  EXPECT_EQ(to_q15(1.0, &stats), kQ15Max);
  EXPECT_EQ(to_q15(2.5, &stats), kQ15Max);
  EXPECT_EQ(to_q15(-1.5, &stats), kQ15Min);
  EXPECT_EQ(stats.saturations, 3);
  EXPECT_EQ(to_q15(-1.0), kQ15Min);  // exactly representable
}

TEST(Q15, RoundsToNearest) {
  // 0.6 * 32768 = 19660.8 -> 19661
  EXPECT_EQ(to_q15(0.6), 19661);
  EXPECT_EQ(to_q15(-0.6), -19661);
}

// The previous, branchy to_q15 body, kept as the oracle for the
// branch-free one.
q15_t to_q15_oracle(double x, SatStats* stats) {
  const double scaled = x * kQ15One;
  const double rounded = scaled >= 0 ? scaled + 0.5 : scaled - 0.5;
  if (rounded >= static_cast<double>(kQ15Max)) {
    if (stats) stats->note();
    return kQ15Max;
  }
  if (rounded <= static_cast<double>(kQ15Min)) {
    if (stats) stats->note();
    return kQ15Min;
  }
  return static_cast<q15_t>(rounded);
}

TEST(Q15, ConversionMatchesTheBranchyOracle) {
  std::vector<double> xs = {0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1e300, -1e300, 0.6, -0.6};
  // Exact .5 ties at both signs, across the range and at its ends
  // (+-32767.5 and +-32766.5 scaled), and the first values past them.
  for (double k : {0.0, 1.0, 2.0, 100.0, 16383.0, 32765.0, 32766.0, 32767.0, 32768.0}) {
    for (double t : {k + 0.5, k + 0.5 - 1e-9, k + 0.5 + 1e-9, k, k + 1e-9}) {
      xs.push_back(t / kQ15One);
      xs.push_back(-t / kQ15One);
    }
  }
  Rng rng(5);
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.uniform(-1.2, 1.2));
  SatStats got_stats, want_stats;
  for (const double x : xs) {
    EXPECT_EQ(to_q15(x, &got_stats), to_q15_oracle(x, &want_stats)) << x;
    EXPECT_EQ(got_stats.saturations, want_stats.saturations) << x;
  }
  EXPECT_GT(want_stats.saturations, 10);  // both sides were exercised
  EXPECT_EQ(to_q15(32767.5 / kQ15One), kQ15Max);
  EXPECT_EQ(to_q15(-32767.5 / kQ15One), kQ15Min);
  EXPECT_EQ(to_q15(-0.0), 0);
}

TEST(Q15, AddSaturates) {
  SatStats stats;
  EXPECT_EQ(add_sat(20000, 20000, &stats), kQ15Max);
  EXPECT_EQ(add_sat(-20000, -20000, &stats), kQ15Min);
  EXPECT_EQ(stats.saturations, 2);
  EXPECT_EQ(add_sat(100, -50), 50);
}

TEST(Q15, SubSaturates) {
  EXPECT_EQ(sub_sat(20000, -20000), kQ15Max);
  EXPECT_EQ(sub_sat(-20000, 20000), kQ15Min);
  EXPECT_EQ(sub_sat(100, 50), 50);
}

TEST(Q15, MulMatchesDouble) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const q15_t a = to_q15(rng.uniform(-1.0, 1.0));
    const q15_t b = to_q15(rng.uniform(-1.0, 1.0));
    const double expect = to_double(a) * to_double(b);
    EXPECT_NEAR(to_double(mul_q15(a, b)), expect, 1.0 / kQ15One);
  }
}

TEST(Q15, MulMinusOneSquaredSaturates) {
  SatStats stats;
  EXPECT_EQ(mul_q15(kQ15Min, kQ15Min, &stats), kQ15Max);
  EXPECT_EQ(stats.saturations, 1);
}

TEST(Q15, MulQ30Exact) {
  EXPECT_EQ(mul_q30(16384, 16384), 16384 * 16384);  // 0.5*0.5 in Q30
  EXPECT_EQ(mul_q30(-16384, 16384), -16384 * 16384);
}

TEST(Q15, ShiftLeftSaturates) {
  SatStats stats;
  EXPECT_EQ(shift_sat(20000, 1, &stats), kQ15Max);
  EXPECT_EQ(shift_sat(-20000, 2, &stats), kQ15Min);
  EXPECT_EQ(shift_sat(100, 3), 800);
  EXPECT_EQ(stats.saturations, 2);
}

TEST(Q15, ShiftRightRounds) {
  EXPECT_EQ(shift_sat(101, -1), 51);   // 50.5 rounds away from... to 51
  EXPECT_EQ(shift_sat(100, -2), 25);
  EXPECT_EQ(shift_sat(3, -16), 0);     // full underflow
  EXPECT_EQ(shift_sat(-3, -16), -1);   // sign floor
}

TEST(Q15, NarrowQ30) {
  // A Q30 value of 0.25 narrowed by 15 gives q15 0.25.
  const std::int64_t q30 = static_cast<std::int64_t>(0.25 * (1 << 30));
  EXPECT_EQ(narrow_q30(q30, 15), to_q15(0.25));
  SatStats stats;
  EXPECT_EQ(narrow_q30(std::int64_t{1} << 50, 15, &stats), kQ15Max);
  EXPECT_EQ(stats.saturations, 1);
}

TEST(Q15, NarrowNegativeShiftWidens) {
  EXPECT_EQ(narrow_q30(100, -2), 400);
}

TEST(CQ15, ComplexMultiplyMatchesDouble) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const cq15 a{to_q15(rng.uniform(-0.7, 0.7)), to_q15(rng.uniform(-0.7, 0.7))};
    const cq15 b{to_q15(rng.uniform(-0.7, 0.7)), to_q15(rng.uniform(-0.7, 0.7))};
    const double re = to_double(a.re) * to_double(b.re) - to_double(a.im) * to_double(b.im);
    const double im = to_double(a.re) * to_double(b.im) + to_double(a.im) * to_double(b.re);
    const cq15 p = cmul(a, b);
    EXPECT_NEAR(to_double(p.re), re, 2.0 / kQ15One);
    EXPECT_NEAR(to_double(p.im), im, 2.0 / kQ15One);
  }
}

TEST(CQ15, CmulCommutative) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const cq15 a{static_cast<q15_t>(rng.next_u64()), static_cast<q15_t>(rng.next_u64())};
    const cq15 b{static_cast<q15_t>(rng.next_u64()), static_cast<q15_t>(rng.next_u64())};
    const cq15 ab = cmul(a, b);
    const cq15 ba = cmul(b, a);
    EXPECT_EQ(ab.re, ba.re);
    EXPECT_EQ(ab.im, ba.im);
  }
}

TEST(CQ15, ConjNegatesImaginary) {
  const cq15 a{100, -200};
  const cq15 c = conj(a);
  EXPECT_EQ(c.re, 100);
  EXPECT_EQ(c.im, 200);
  // -(-32768) saturates.
  EXPECT_EQ(conj(cq15{0, kQ15Min}).im, kQ15Max);
}

TEST(Vec, AddAndMpy) {
  std::vector<q15_t> a{to_q15(0.5), to_q15(-0.25), 30000};
  std::vector<q15_t> b{to_q15(0.25), to_q15(0.5), 30000};
  std::vector<q15_t> out(3);
  SatStats stats;
  vec_add(a, b, out, &stats);
  EXPECT_EQ(out[0], to_q15(0.75));
  EXPECT_EQ(out[2], kQ15Max);  // saturated
  EXPECT_EQ(stats.saturations, 1);
  vec_mpy(a, b, out);
  EXPECT_NEAR(to_double(out[0]), 0.125, 1e-4);
}

TEST(Vec, MacMatchesDouble) {
  // Amplitudes typical of normalized activations/weights; full-scale
  // 64-element dot products genuinely overflow the LEA's 32-bit
  // accumulator (covered by MacReportsQ31Overflow below).
  Rng rng(21);
  std::vector<q15_t> a(64), b(64);
  double expect = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = to_q15(rng.uniform(-0.15, 0.15));
    b[i] = to_q15(rng.uniform(-0.15, 0.15));
    expect += to_double(a[i]) * to_double(b[i]);
  }
  const MacResult r = vec_mac(a, b);
  EXPECT_NEAR(static_cast<double>(r.acc_q30) / (1 << 30), expect, 1e-3);
  EXPECT_FALSE(r.overflowed_q31);
}

TEST(Vec, MacReportsQ31Overflow) {
  // 8192 full-scale products exceed the 32-bit accumulator.
  std::vector<q15_t> a(8192, kQ15Max), b(8192, kQ15Max);
  EXPECT_TRUE(vec_mac(a, b).overflowed_q31);
}

TEST(Vec, QuantizeDequantizeRoundTrip) {
  Rng rng(31);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-0.99, 0.99));
  const auto q = quantize(x);
  const auto back = dequantize(q);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1.0f / 32768.0f);
}

TEST(Vec, ShiftVector) {
  std::vector<q15_t> a{4, 8, -16};
  std::vector<q15_t> out(3);
  vec_shift(a, 2, out);
  EXPECT_EQ(out[0], 16);
  EXPECT_EQ(out[2], -64);
  vec_shift(a, -1, out);
  EXPECT_EQ(out[0], 2);
}

TEST(Vec, ScaleByConstant) {
  std::vector<q15_t> a{to_q15(0.5), to_q15(-0.5)};
  std::vector<q15_t> out(2);
  vec_scale(a, to_q15(0.5), out);
  EXPECT_NEAR(to_double(out[0]), 0.25, 1e-4);
  EXPECT_NEAR(to_double(out[1]), -0.25, 1e-4);
}

// Property sweep: add_sat equals clamped integer addition everywhere on a
// coarse lattice.
class SatLattice : public ::testing::TestWithParam<int> {};

TEST_P(SatLattice, AddMatchesClampedWideAdd) {
  const int a = GetParam();
  for (int b = -32768; b <= 32767; b += 4099) {
    const int wide = a + b;
    const int clamped = std::clamp(wide, -32768, 32767);
    EXPECT_EQ(add_sat(static_cast<q15_t>(a), static_cast<q15_t>(b)), clamped);
  }
}

INSTANTIATE_TEST_SUITE_P(Lattice, SatLattice,
                         ::testing::Values(-32768, -30000, -12345, -1, 0, 1, 9999, 32767));

}  // namespace
}  // namespace ehdnn::fx
