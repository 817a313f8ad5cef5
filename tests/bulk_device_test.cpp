// Bulk-vs-scalar device-access equivalence: the bulk fast paths
// (read_block / write_block / read_gather / mac_block / cpu_copy /
// dma_copy, and the kernels built on them) must be observationally
// identical to the scalar per-word reference path — same memory contents,
// same modeled cycle and energy totals per rail, and the same
// word-granular FRAM commit behavior across a mid-block brown-out.
// The charge runs (Device::charge_run) are held to the stricter standard
// of bit-identity with the ops they replace, on every arm.
// Plus the vec_mac 32-bit-accumulator edge cases at the exact Q31
// boundaries, and FftPlan cache thread safety.

#include <gtest/gtest.h>

#include <thread>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "device/device.h"
#include "dsp/fft.h"
#include "fixed/vec.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/continuous.h"
#include "quant/quantize.h"
#include "util/rng.h"

namespace ehdnn::dev {
namespace {

using fx::q15_t;

// Deterministic fixed-budget supply (no harvest income): brown-out occurs
// at an exactly computable word within a block write.
class BudgetSupply : public PowerSupply {
 public:
  explicit BudgetSupply(double joules) : budget_(joules) {}

  bool consume(double joules, double dt) override {
    now_ += dt;
    budget_ -= joules;
    if (budget_ < 0.0) {
      on_ = false;
      return false;
    }
    return true;
  }
  double voltage() const override { return on_ ? 3.3 : 0.0; }
  double headroom() const override { return std::max(budget_, 0.0); }
  bool on() const override { return on_; }
  double recharge_to_on() override {
    budget_ = recharge_to_;
    on_ = true;
    return 1.0;
  }
  double now() const override { return now_; }

  void set_recharge_budget(double joules) { recharge_to_ = joules; }

 private:
  double budget_;
  double recharge_to_ = 0.0;
  bool on_ = true;
  double now_ = 0.0;
};

constexpr double kRelTol = 1e-9;  // n*x vs x+x+...+x FP association slack

void expect_traces_match(const Device& a, const Device& b) {
  for (std::size_t r = 0; r < static_cast<std::size_t>(Rail::kCount); ++r) {
    const auto rail = static_cast<Rail>(r);
    EXPECT_NEAR(a.trace().energy(rail), b.trace().energy(rail),
                kRelTol * (std::abs(b.trace().energy(rail)) + 1e-30))
        << "energy rail " << rail_name(rail);
    EXPECT_NEAR(a.trace().cycles(rail), b.trace().cycles(rail),
                kRelTol * (std::abs(b.trace().cycles(rail)) + 1e-30))
        << "cycle rail " << rail_name(rail);
  }
}

void expect_memory_match(const Device& a, const Device& b, MemKind mem, Addr base,
                         std::size_t n) {
  const MemoryRegion& ra = mem == MemKind::kSram ? a.sram() : a.fram();
  const MemoryRegion& rb = mem == MemKind::kSram ? b.sram() : b.fram();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ra.peek(base + i), rb.peek(base + i)) << "word " << base + i;
  }
}

// Drives the same access sequence through both devices.
template <typename Fn>
void run_both(Device& bulk, Device& scalar, Fn&& fn) {
  bulk.set_bulk_enabled(true);
  scalar.set_bulk_enabled(false);
  fn(bulk);
  fn(scalar);
}

TEST(BulkAccess, BlockReadWriteGatherMacMatchScalar) {
  Device bulk, scalar;
  Rng rng(42);
  std::vector<q15_t> data(256);
  for (auto& v : data) v = static_cast<q15_t>(rng.next_u64());
  std::vector<std::uint32_t> offsets = {0, 7, 3, 128, 255, 16, 16, 9};

  std::vector<q15_t> out_bulk, out_scalar;
  std::int64_t mac_bulk = 0, mac_scalar = 0;
  bool ovf_bulk = false, ovf_scalar = false;
  auto drive = [&](Device& d, std::vector<q15_t>& out, std::int64_t& mac, bool& ovf) {
    d.write_block(MemKind::kFram, 100, data);
    d.cpu_copy(MemKind::kFram, 100, MemKind::kSram, 0, 256);
    d.dma_copy(MemKind::kSram, 0, MemKind::kSram, 512, 256);
    out.assign(256 + offsets.size(), 0);
    d.read_block(MemKind::kSram, 512, std::span<q15_t>(out.data(), 256));
    d.read_gather(MemKind::kSram, 0, offsets, 256,
                  std::span<q15_t>(out.data() + 256, offsets.size()));
    mac = d.mac_block(0, 512, 256, &ovf);
  };
  bulk.set_bulk_enabled(true);
  scalar.set_bulk_enabled(false);
  drive(bulk, out_bulk, mac_bulk, ovf_bulk);
  drive(scalar, out_scalar, mac_scalar, ovf_scalar);

  EXPECT_EQ(out_bulk, out_scalar);
  EXPECT_EQ(mac_bulk, mac_scalar);
  EXPECT_EQ(ovf_bulk, ovf_scalar);
  expect_memory_match(bulk, scalar, MemKind::kFram, 100, 256);
  expect_memory_match(bulk, scalar, MemKind::kSram, 0, 768);
  expect_traces_match(bulk, scalar);
}

// FRAM write accounting across a mid-block reboot: with a supply that can
// only pay for part of the block, the bulk path must fall back to
// word-granular commits and leave exactly the prefix the scalar path
// leaves — then finish identically after the reboot.
TEST(BulkAccess, TornFramWriteAcrossRebootMatchesScalar) {
  constexpr std::size_t kN = 64;
  std::vector<q15_t> data(kN);
  for (std::size_t i = 0; i < kN; ++i) data[i] = static_cast<q15_t>(1000 + i);

  auto torn_run = [&](bool bulk_mode) {
    Device d;
    d.set_bulk_enabled(bulk_mode);
    // Budget for roughly half the block's FRAM writes.
    const CostModel& cm = d.cost();
    const double per_word =
        cm.e_fram_write + cm.p_cpu_active * cm.cycles_fram_word / cm.cpu_hz;
    BudgetSupply supply(per_word * (kN / 2) + per_word * 0.5);
    supply.set_recharge_budget(1.0);  // effectively unlimited after reboot
    d.attach_supply(&supply);
    // Sentinel so untouched words are provably untouched.
    for (std::size_t i = 0; i < kN; ++i) d.fram().poke(i, -7);
    d.write_block(MemKind::kFram, 0, data);
    EXPECT_TRUE(d.browned_out());
    // Count the committed prefix.
    std::size_t prefix = 0;
    while (prefix < kN && d.fram().peek(prefix) == data[prefix]) ++prefix;
    for (std::size_t i = prefix; i < kN; ++i) EXPECT_EQ(d.fram().peek(i), -7);
    // Reboot (FRAM retained) and re-issue the whole block.
    supply.recharge_to_on();
    d.reboot();
    EXPECT_FALSE(d.browned_out());
    d.write_block(MemKind::kFram, 0, data);
    return std::pair<std::size_t, double>(prefix, d.trace().total_energy());
  };

  const auto [prefix_bulk, energy_bulk] = torn_run(true);
  const auto [prefix_scalar, energy_scalar] = torn_run(false);
  EXPECT_GT(prefix_bulk, 0u);
  EXPECT_LT(prefix_bulk, kN);
  EXPECT_EQ(prefix_bulk, prefix_scalar);
  EXPECT_NEAR(energy_bulk, energy_scalar, kRelTol * energy_scalar);
}

// Whole-model equivalence: every layer kind through the real kernels.
TEST(BulkAccess, FullModelBitExactAndCostIdentical) {
  Rng rng(7);
  nn::Model m;
  m.add<nn::Conv2D>(2, 4, 3, 3)->init(rng);
  m.add<nn::MaxPool2D>();
  m.add<nn::ReLU>();
  m.add<nn::Flatten>();
  m.add<nn::BcmDense>(64, 64, 32)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(64, 10)->init(rng);

  const std::vector<std::size_t> shape{2, 10, 10};
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    nn::Tensor t(shape);
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
    }
    calib.push_back(std::move(t));
  }
  const auto qm = quant::quantize(m, calib, shape);
  nn::Tensor x(shape);
  for (std::size_t j = 0; j < x.size(); ++j) {
    x[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto qin = quant::quantize_input(qm, x);

  auto run = [&](bool bulk_mode) {
    Device d;
    d.set_bulk_enabled(bulk_mode);
    power::ContinuousPower supply;
    d.attach_supply(&supply);
    const auto cm = ace::compile(qm, d);
    const auto policy = flex::make_ace_policy();
    auto st = flex::IntermittentExecutor(*policy).run(d, cm, qin);
    EXPECT_TRUE(st.completed());
    return std::tuple<std::vector<q15_t>, double, double>(
        st.output, d.trace().total_cycles(), d.trace().total_energy());
  };
  const auto [out_bulk, cyc_bulk, e_bulk] = run(true);
  const auto [out_scalar, cyc_scalar, e_scalar] = run(false);
  EXPECT_EQ(out_bulk, out_scalar);
  EXPECT_NEAR(cyc_bulk, cyc_scalar, kRelTol * cyc_scalar);
  EXPECT_NEAR(e_bulk, e_scalar, kRelTol * e_scalar);
}

// ---- charge runs -----------------------------------------------------------
// A device that charges a MAC loop through charge_loop() and one that
// runs every repetition through the real ops must end bit-identical:
// trace, supply state, brown-out latch. Unlike the bulk paths above there
// is no FP slack: a run makes the ops' own draws in the ops' order.

// BudgetSupply that lets the device buffer draws in prepaid windows, with
// the whole remaining budget as the window budget: the device's running
// budget and the supply's then subtract the same draws in the same order.
class PrepaidBudgetSupply : public BudgetSupply {
 public:
  using BudgetSupply::BudgetSupply;
  bool prepay_safe() const override { return true; }
  double prepaid_budget() const override { return headroom(); }
};

// One SONIC MAC through the real ops (core/flex/sonic.cpp mac_per_op).
void mac_ops(Device& d) {
  d.read(MemKind::kFram, 10);
  d.read(MemKind::kFram, 11);
  d.cpu_mac_cycles();
  d.cpu_ops(2);
}

ChargePattern mac_pattern(const Device& d) {
  return {d.read_cost(MemKind::kFram), d.read_cost(MemKind::kFram), d.mac_cost(),
          d.cpu_ops_cost(2)};
}

void expect_same_trace(const Device& a, const Device& b) {
  EXPECT_EQ(a.trace().total_energy(), b.trace().total_energy());
  EXPECT_EQ(a.trace().total_cycles(), b.trace().total_cycles());
  for (std::size_t r = 0; r < static_cast<std::size_t>(Rail::kCount); ++r) {
    const auto rail = static_cast<Rail>(r);
    EXPECT_EQ(a.trace().energy(rail), b.trace().energy(rail)) << rail_name(rail);
    EXPECT_EQ(a.trace().cycles(rail), b.trace().cycles(rail)) << rail_name(rail);
  }
}

// Runs `macs` MACs on `runs` through charge_loop and on `ops` through the
// real ops only, `rounds` times, with one word write between rounds (the
// commit a runtime makes between MAC loops).
void drive_both(Device& runs, Device& ops, std::size_t macs, int rounds) {
  const ChargePattern p = mac_pattern(runs);
  for (int k = 0; k < rounds; ++k) {
    runs.charge_loop(p, macs, [&](std::size_t) { mac_ops(runs); });
    for (std::size_t i = 0; i < macs && !ops.browned_out(); ++i) mac_ops(ops);
    runs.write(MemKind::kFram, 20, static_cast<q15_t>(k));
    ops.write(MemKind::kFram, 20, static_cast<q15_t>(k));
  }
}

TEST(ChargeRun, BenchPowerMatchesPerOp) {
  Device runs, ops;
  EXPECT_EQ(runs.charge_run(mac_pattern(runs), 5), 5u);
  for (int i = 0; i < 5; ++i) mac_ops(ops);
  drive_both(runs, ops, 100, 7);
  expect_same_trace(runs, ops);
}

TEST(ChargeRun, InfallibleSupplySettlesEveryDrawInOrder) {
  Device runs, ops;
  power::ContinuousPower s_runs, s_ops;
  runs.attach_supply(&s_runs);
  ops.attach_supply(&s_ops);
  // Longer than one settlement chunk, and a ragged last chunk.
  EXPECT_EQ(runs.charge_run(mac_pattern(runs), 101), 101u);
  for (int i = 0; i < 101; ++i) mac_ops(ops);
  // A second pattern on the same device, then the first again.
  const ChargePattern tile{runs.mac_cost(), runs.cpu_ops_cost(2)};
  EXPECT_EQ(runs.charge_run(tile, 9), 9u);
  for (int i = 0; i < 9; ++i) {
    ops.cpu_mac_cycles();
    ops.cpu_ops(2);
  }
  drive_both(runs, ops, 16, 5);
  expect_same_trace(runs, ops);
  EXPECT_EQ(s_runs.now(), s_ops.now());
  EXPECT_EQ(s_runs.energy_drawn(), s_ops.energy_drawn());
}

TEST(ChargeRun, PrepaidWindowStopsAtBudgetAndEventCap) {
  // Budget for ~2500 MACs: ~10k draws, so windows end on the event cap
  // (4096 buffered draws) and finally on the budget, where the last
  // MACs settle per op and one browns out.
  Device probe;
  const ChargePattern probe_mac = mac_pattern(probe);
  double mac_j = 0.0;
  for (const FixedOpCost& c : probe_mac.steps()) mac_j += c.joules;
  const double budget = 2500.5 * mac_j;
  Device runs, ops;
  PrepaidBudgetSupply s_runs(budget), s_ops(budget);
  runs.attach_supply(&s_runs);
  ops.attach_supply(&s_ops);
  // No window is open before the first draw: the run leaves arming one to
  // the ops.
  EXPECT_EQ(runs.charge_run(mac_pattern(runs), 8), 0u);
  drive_both(runs, ops, 300, 10);
  ASSERT_TRUE(ops.browned_out());
  EXPECT_TRUE(runs.browned_out());
  runs.settle_supply();
  ops.settle_supply();
  expect_same_trace(runs, ops);
  EXPECT_EQ(s_runs.now(), s_ops.now());
  EXPECT_EQ(s_runs.headroom(), s_ops.headroom());

  // Inside an open window a run charges whole repetitions only, up to
  // the event cap.
  Device capped;
  PrepaidBudgetSupply s_capped(1e9 * mac_j);
  capped.attach_supply(&s_capped);
  mac_ops(capped);  // arms the window: 4 buffered draws
  EXPECT_EQ(capped.charge_run(mac_pattern(capped), 5000), (4096u - 4u) / 4u);
  EXPECT_EQ(capped.charge_run(mac_pattern(capped), 5000), 0u);
}

TEST(ChargeRun, RefusesWhereTheOpsDecidePerOp) {
  // A fallible supply with no window: every draw is its own consume().
  Device fallible;
  BudgetSupply s_fallible(1.0);
  fallible.attach_supply(&s_fallible);
  EXPECT_EQ(fallible.charge_run(mac_pattern(fallible), 4), 0u);
  const ChargePattern writes{fallible.write_cost(MemKind::kFram)};
  EXPECT_EQ(fallible.charge_run(writes, 4), 0u);
  EXPECT_EQ(fallible.trace().total_energy(), 0.0);

  // The per-op oracle mode.
  Device per_op;
  power::ContinuousPower s_per_op;
  per_op.attach_supply(&s_per_op);
  per_op.set_bulk_enabled(false);
  EXPECT_EQ(per_op.charge_run(mac_pattern(per_op), 4), 0u);
  EXPECT_EQ(s_per_op.now(), 0.0);

  // A latched device.
  Device latched;
  BudgetSupply s_latched(1e-12);
  latched.attach_supply(&s_latched);
  mac_ops(latched);
  ASSERT_TRUE(latched.browned_out());
  const double e = latched.trace().total_energy();
  EXPECT_EQ(latched.charge_run(mac_pattern(latched), 4), 0u);
  latched.charge_loop(mac_pattern(latched), 4, [&](std::size_t) { mac_ops(latched); });
  EXPECT_EQ(latched.trace().total_energy(), e);
}

}  // namespace
}  // namespace ehdnn::dev

namespace ehdnn::fx {
namespace {

// vec_mac's overflowed_q31 must flip exactly past the ±Q31 boundaries —
// the contract the LEA MAC's 32-bit hardware accumulator imposes.
TEST(VecMacOverflow, ExactQ31MaxIsNotOverflow) {
  // (-2^15)^2 + 1*(-1) + (-2^15)^2 = 2^31 - 1 = INT32_MAX exactly, with
  // every partial sum inside the range (the flag watches partial sums).
  const std::vector<q15_t> a{-32768, 1, -32768};
  const std::vector<q15_t> b{-32768, -1, -32768};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, std::numeric_limits<q31_t>::max());
  EXPECT_FALSE(r.overflowed_q31);
}

TEST(VecMacOverflow, OnePastQ31MaxOverflows) {
  // 2^30 + 2^30 = 2^31 = INT32_MAX + 1.
  const std::vector<q15_t> a{-32768, -32768};
  const std::vector<q15_t> b{-32768, -32768};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, std::int64_t{1} << 31);
  EXPECT_TRUE(r.overflowed_q31);
}

TEST(VecMacOverflow, ExactQ31MinIsNotOverflow) {
  // 2 * (-32768 * 32767) + (-32768 * 2) = -2^31 = INT32_MIN exactly.
  const std::vector<q15_t> a{-32768, -32768, -32768};
  const std::vector<q15_t> b{32767, 32767, 2};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, std::numeric_limits<q31_t>::min());
  EXPECT_FALSE(r.overflowed_q31);
}

TEST(VecMacOverflow, OnePastQ31MinOverflows) {
  const std::vector<q15_t> a{-32768, -32768, -32768, 1};
  const std::vector<q15_t> b{32767, 32767, 2, -1};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, static_cast<std::int64_t>(std::numeric_limits<q31_t>::min()) - 1);
  EXPECT_TRUE(r.overflowed_q31);
}

TEST(VecMacOverflow, TransientOverflowStaysFlagged) {
  // Exceed +Q31 then fall back inside the range: the flag must stay set,
  // exactly as the wrapped hardware accumulator would have corrupted the
  // sum even though the final value fits.
  const std::vector<q15_t> a{-32768, -32768, -32768, -32768};
  const std::vector<q15_t> b{-32768, -32768, 32767, 32767};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, 65536);  // back in range
  EXPECT_TRUE(r.overflowed_q31);
  // Device mac_block reports the same decision.
  dev::Device d;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d.sram().poke(i, a[i]);
    d.sram().poke(64 + i, b[i]);
  }
  bool ovf = false;
  const std::int64_t acc = d.mac_block(0, 64, a.size(), &ovf);
  EXPECT_EQ(acc, r.acc_q30);
  EXPECT_TRUE(ovf);
}

}  // namespace
}  // namespace ehdnn::fx

namespace ehdnn::dsp {
namespace {

// FftPlan cache: concurrent first-touch from many threads must neither
// race nor invalidate previously returned references.
TEST(FftPlanCache, ThreadSafeFirstTouch) {
  const std::vector<std::size_t> sizes{8, 16, 32, 64, 128, 256, 512};
  const FftPlan* first = &fft_plan(8);
  std::vector<std::thread> threads;
  std::vector<const FftPlan*> got(8 * sizes.size(), nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &sizes, &got] {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        got[static_cast<std::size_t>(t) * sizes.size() + i] = &fft_plan(sizes[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Same size -> same stable plan object, with coherent contents.
  for (int t = 0; t < 8; ++t) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const FftPlan* p = got[static_cast<std::size_t>(t) * sizes.size() + i];
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p, &fft_plan(sizes[i]));
      EXPECT_EQ(p->n, sizes[i]);
      EXPECT_EQ(p->twiddles.size(), sizes[i] / 2);
    }
  }
  EXPECT_EQ(first, &fft_plan(8));
  EXPECT_EQ(&twiddles_q15(64), &fft_plan(64).twiddles);
}

}  // namespace
}  // namespace ehdnn::dsp
