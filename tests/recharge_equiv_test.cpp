// Equivalence suite for the analytic recharge/idle fast path.
//
// CapacitorConfig::analytic_recharge selects between the 50 us stepped
// reference integrator and the closed-form segment fast-forward
// (power/capacitor.h). The contract is BIT-EXACT equality: every test
// here drives a twin pair of supplies — one analytic, one stepped —
// through identical operation sequences and compares the full observable
// state with exact (==) floating-point equality after every operation.
// Sources cover the piecewise-constant contract's corners: constant
// income, square waves whose phase flips land exactly on integration-step
// boundaries, offset views (including the offset = 25 * period exact
// alignment that once exposed a floor-vs-fmod residue bug in
// SquareSource), ZOH traces, the v_max regulator clamp engaging
// mid-segment, and the max_off_s starvation guard — plus a randomized
// stepped-vs-analytic differential over mixed op sequences.
//
// The same closed form settles charge runs (CapacitorSupply::
// consume_batch): the RunSettlement tests hold a batch's run entries to
// the same draws settled one consume() at a time, bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "device/device.h"
#include "power/capacitor.h"
#include "power/harvest.h"
#include "util/rng.h"

namespace ehdnn::power {
namespace {

// Exact-equality comparison of everything a supply exposes. voltage() and
// headroom() together pin the stored energy bit for bit.
void expect_same_state(const CapacitorSupply& a, const CapacitorSupply& b,
                       const char* where) {
  EXPECT_EQ(a.voltage(), b.voltage()) << where;
  EXPECT_EQ(a.headroom(), b.headroom()) << where;
  EXPECT_EQ(a.now(), b.now()) << where;
  EXPECT_EQ(a.on(), b.on()) << where;
  EXPECT_EQ(a.starved(), b.starved()) << where;
  EXPECT_EQ(a.failures(), b.failures()) << where;
  EXPECT_EQ(a.on_time(), b.on_time()) << where;
  EXPECT_EQ(a.off_time(), b.off_time()) << where;
  EXPECT_EQ(a.idle_time(), b.idle_time()) << where;
}

// A twin pair over one source: `fast` takes the analytic path, `ref` the
// stepped loop. All config fields other than the path selector match.
struct Twin {
  CapacitorSupply fast;
  CapacitorSupply ref;

  Twin(const HarvestSource& src, CapacitorConfig cfg)
      : fast(src, with_analytic(cfg, true)), ref(src, with_analytic(cfg, false)) {}

  static CapacitorConfig with_analytic(CapacitorConfig cfg, bool analytic) {
    cfg.analytic_recharge = analytic;
    return cfg;
  }

  void expect_same(const char* where) const { expect_same_state(fast, ref, where); }

  void consume(double joules, double dt) {
    const bool a = fast.consume(joules, dt);
    const bool b = ref.consume(joules, dt);
    EXPECT_EQ(a, b);
  }

  void drain() {
    // Zero-dt draws empty the store without advancing time, so recharges
    // start from an exactly known clock (boundary-alignment tests depend
    // on this).
    for (;;) {
      const bool a = fast.consume(1e-5, 0.0);
      const bool b = ref.consume(1e-5, 0.0);
      ASSERT_EQ(a, b);
      if (!a) break;
    }
    EXPECT_FALSE(fast.on());
    EXPECT_FALSE(ref.on());
  }

  void recharge() {
    const double a = fast.recharge_to_on();
    const double b = ref.recharge_to_on();
    EXPECT_EQ(a, b) << "off-time diverged";
  }

  void idle_until(double t_s) {
    fast.idle_until(t_s);
    ref.idle_until(t_s);
  }
};

TEST(RechargeEquivalence, ConstantSource) {
  ConstantSource src(1.7e-3);
  Twin t(src, {});
  t.drain();
  t.recharge();
  t.expect_same("const recharge");
  EXPECT_TRUE(t.fast.on());
}

TEST(RechargeEquivalence, SquareSourceSpansSegments) {
  // Period 2 ms at the default 2 mW-scale income: one recharge crosses
  // many hi/lo segments, so the fast-forward restarts at every boundary.
  SquareSource src(2.5e-3, 0.1e-3, /*period=*/2e-3, /*duty=*/0.5);
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  Twin t(src, cfg);
  t.drain();
  t.recharge();
  t.expect_same("square recharge");
  EXPECT_TRUE(t.fast.on());
}

TEST(RechargeEquivalence, SegmentBoundaryOnStepGrid) {
  // Phase flips at multiples of 1 ms = exactly 20 reference steps: the
  // segment end lands precisely on the stepped loop's grid, the corner
  // where an off-by-one in the fast-forward's stop count would first
  // show. Starting from now_ = 0 (zero-dt drain) keeps the alignment.
  SquareSource src(3e-3, 0.2e-3, /*period=*/2e-3, /*duty=*/0.5);
  CapacitorConfig cfg;
  cfg.capacitance_f = 4.7e-6;
  Twin t(src, cfg);
  ASSERT_EQ(t.fast.now(), 0.0);
  t.drain();
  ASSERT_EQ(t.fast.now(), 0.0);
  t.recharge();
  t.expect_same("grid-aligned square recharge");
}

TEST(RechargeEquivalence, OffsetViewTwentyFivePeriods) {
  // Regression: a time-offset view at offset = 25 * period, so every
  // power_at sees inner time exactly on a phase boundary multiple. The
  // original floor-based SquareSource phase computation produced an
  // inconsistent boundary classification here (fixed by the fmod-residue
  // delta form); the analytic path must agree with the stepped loop
  // through the offset view's rounding slop.
  const double period = 2e-3;
  SquareSource inner(2.8e-3, 0.15e-3, period, 0.5);
  TimeOffsetSource src(inner, 25.0 * period);
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  Twin t(src, cfg);
  t.drain();
  t.recharge();
  t.expect_same("offset 25*period recharge");
  // Park across several more boundaries for the idle path too.
  t.idle_until(t.fast.now() + 17e-3);
  t.expect_same("offset 25*period idle");
}

TEST(RechargeEquivalence, TraceSourceZoh) {
  // ZOH trace: arbitrary per-sample powers, segment ends on the sample
  // grid (1 ms), including a zero-income sample mid-recharge.
  TraceSource src({2.0e-3, 0.4e-3, 0.0, 3.1e-3, 1.2e-3}, /*step=*/1e-3);
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  Twin t(src, cfg);
  t.drain();
  t.recharge();
  t.expect_same("trace recharge");
  t.idle_until(t.fast.now() + 7.3e-3);
  t.expect_same("trace idle");
}

TEST(RechargeEquivalence, VmaxClampMidSegment) {
  // A long park under strong constant income: the store hits the v_max
  // regulator clamp partway through a segment, after which income stops
  // landing. The analytic path must hand the clamping step to the
  // literal integrator and then fast-forward the full-store remainder.
  ConstantSource src(5e-3);
  CapacitorConfig cfg;
  cfg.capacitance_f = 2.2e-6;
  Twin t(src, cfg);
  t.consume(1e-5, 1e-4);  // nudge below full so income lands at first
  t.idle_until(0.5);
  t.expect_same("v_max clamp idle");
  EXPECT_EQ(t.fast.voltage(), t.fast.config().v_max);
}

TEST(RechargeEquivalence, StarvationGuard) {
  // Income too weak to reach v_on within max_off_s: both paths must give
  // up at the same instant with starved() set and identical partial
  // charge.
  SquareSource src(0.0, 0.02e-3, /*period=*/1.0, /*duty=*/0.5);  // trickle
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  cfg.max_off_s = 0.05;
  Twin t(src, cfg);
  t.drain();
  t.recharge();
  t.expect_same("starved recharge");
  EXPECT_TRUE(t.fast.starved());
  EXPECT_FALSE(t.fast.on());
}

TEST(RechargeEquivalence, RandomizedDifferential) {
  // Mixed op sequences over randomized sources: draws of random size and
  // duration, recharges after brown-outs, random-length idle parks. The
  // state must stay bit-identical after every operation.
  Rng rng(0xd1ff);
  for (int trial = 0; trial < 40; ++trial) {
    std::unique_ptr<HarvestSource> owned;
    std::unique_ptr<HarvestSource> inner;
    switch (trial % 4) {
      case 0:
        owned = std::make_unique<ConstantSource>(rng.uniform(0.5e-3, 4e-3));
        break;
      case 1:
        owned = std::make_unique<SquareSource>(rng.uniform(1e-3, 5e-3),
                                               rng.uniform(0.0, 0.5e-3),
                                               rng.uniform(0.5e-3, 20e-3),
                                               rng.uniform(0.2, 0.8));
        break;
      case 2: {
        std::vector<double> samples;
        for (int i = 0; i < 8; ++i) samples.push_back(rng.uniform(0.0, 4e-3));
        samples[0] = 2e-3;  // guarantee some income
        owned = std::make_unique<TraceSource>(samples, rng.uniform(0.5e-3, 3e-3));
        break;
      }
      default: {
        const double period = rng.uniform(1e-3, 10e-3);
        inner = std::make_unique<SquareSource>(rng.uniform(1.5e-3, 5e-3),
                                               rng.uniform(0.0, 0.3e-3), period, 0.5);
        // Bias toward exact-multiple offsets — the alignment corner.
        const double mult = rng.chance(0.5) ? 25.0 : rng.uniform(0.0, 40.0);
        owned = std::make_unique<TimeOffsetSource>(*inner, mult * period);
        break;
      }
    }
    CapacitorConfig cfg;
    cfg.capacitance_f = rng.uniform(2e-6, 10e-6);
    cfg.max_off_s = 2.0;
    Twin t(*owned, cfg);
    for (int op = 0; op < 60; ++op) {
      const double pick = rng.uniform();
      if (!t.fast.on()) {
        t.recharge();
      } else if (pick < 0.6) {
        t.consume(rng.uniform(1e-7, 4e-5), rng.uniform(0.0, 2e-4));
      } else if (pick < 0.8) {
        t.idle_until(t.fast.now() + rng.uniform(0.0, 30e-3));
      } else {
        t.drain();
      }
      if (op % 10 == 9) t.expect_same("randomized differential");
    }
    t.expect_same("randomized differential end");
  }
}

// ---- charge-run settlement ------------------------------------------------

// A twin pair for run settlement: `runs` settles each batch through
// consume_batch(), run entries and all; `draws` settles the same draws one
// consume() each, in settlement order — the per-draw oracle.
struct RunTwin {
  CapacitorSupply runs;
  CapacitorSupply draws;

  RunTwin(const HarvestSource& src, CapacitorConfig cfg) : runs(src, cfg), draws(src, cfg) {}

  // Returns the index of the draw that browned out, or b.size().
  std::size_t settle(const dev::SpendBatch& b) {
    const std::size_t got = runs.consume_batch(b);
    const std::size_t want = dev::for_each_draw(
        b, [&](const dev::SpendEvent& e) { return draws.consume(e.joules, e.dt); });
    EXPECT_EQ(got, want);
    return got;
  }
  void recharge() { EXPECT_EQ(runs.recharge_to_on(), draws.recharge_to_on()); }
  void expect_same(const char* where) const { expect_same_state(runs, draws, where); }
};

// The device that prices the draws below: the evaluation board's costs.
const dev::Device& board() {
  static const dev::Device d;
  return d;
}

dev::SpendRun run_of(std::initializer_list<dev::FixedOpCost> steps, std::size_t reps,
                     std::size_t at) {
  dev::SpendRun r;
  for (const dev::FixedOpCost& c : steps) r.steps[r.n++] = {c.joules, c.dt};
  r.reps = reps;
  r.at = at;
  return r;
}

// One conv pixel of a g-tap window (core/ace/kernels.cpp WindowRow): loop
// control, the gather, the staging write and the LEA MAC. Its CPU draws
// (5.7 mW) outrun a 4 mW harvest and its LEA draw (2.1 mW) does not.
dev::SpendRun pixel_run(std::size_t g, std::size_t reps, std::size_t at = 0) {
  const dev::Device& d = board();
  return run_of({d.cpu_ops_cost(2.0 * static_cast<double>(g)),
                 d.block_read_cost(dev::MemKind::kSram, g),
                 d.block_write_cost(dev::MemKind::kSram, g), d.lea_mac_cost(g)},
                reps, at);
}

// Random batches on `src`: single draws around a few runs of random
// patterns (the conv pixel, or one to four random draws) and lengths,
// recharging after every brown-out. Returns the draws settled.
long drive_random_batches(const HarvestSource& src, CapacitorConfig cfg, std::uint64_t seed,
                          int batches) {
  Rng rng(seed);
  RunTwin t(src, cfg);
  const dev::Device& d = board();
  long settled = 0;
  for (int k = 0; k < batches; ++k) {
    std::vector<dev::SpendEvent> singles;
    std::vector<dev::SpendRun> runs;
    const int n_runs = rng.range(0, 3);
    for (int r = 0; r < n_runs; ++r) {
      singles.push_back({d.write_cost(dev::MemKind::kFram).joules,
                         d.write_cost(dev::MemKind::kFram).dt});
      const auto reps = static_cast<std::size_t>(rng.range(1, 60));
      const auto g = static_cast<std::size_t>(rng.range(1, 25));
      const double pick = rng.uniform();
      if (pick < 0.5) {
        runs.push_back(pixel_run(g, reps, singles.size()));
      } else if (pick < 0.7) {
        // Two runs whose draws take the same time but not the same energy
        // (an SRAM read and write of g words).
        const dev::FixedOpCost loop = d.cpu_ops_cost(2.0 * static_cast<double>(g));
        runs.push_back(run_of({loop, d.block_read_cost(dev::MemKind::kSram, g)}, reps,
                              singles.size()));
        runs.push_back(run_of({loop, d.block_write_cost(dev::MemKind::kSram, g)}, reps,
                              singles.size()));
      } else {
        dev::SpendRun run;
        run.n = static_cast<std::size_t>(rng.range(1, 4));
        for (std::size_t i = 0; i < run.n; ++i) {
          const double dt = rng.uniform(0.0, 4e-6);
          run.steps[i] = {dt * rng.uniform(1e-3, 8e-3), dt};
        }
        run.reps = reps;
        run.at = singles.size();
        runs.push_back(run);
      }
    }
    singles.push_back({d.cpu_ops_cost(6.0).joules, d.cpu_ops_cost(6.0).dt});
    const dev::SpendBatch b{singles, runs};
    const std::size_t done = t.settle(b);
    settled += static_cast<long>(std::min(done, b.size()));
    if (done != b.size()) t.recharge();
    t.expect_same("random batch");
    if (::testing::Test::HasFailure()) break;
  }
  return settled;
}

TEST(RunSettlement, MatchesPerDrawSettlementOnEverySource) {
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  const SquareSource square(4e-3, 0.2e-3, /*period=*/0.02, /*duty=*/0.5);
  const ConstantSource constant(1.7e-3);
  const TraceSource zoh({2.0e-3, 0.4e-3, 0.0, 3.1e-3, 5.2e-3}, /*step=*/1e-3);
  const TimeOffsetSource offset(square, 25.0 * 0.02);
  for (const HarvestSource* src :
       std::initializer_list<const HarvestSource*>{&square, &constant, &zoh, &offset}) {
    EXPECT_GT(drive_random_batches(*src, cfg, 0x5e771e, 400), 50000);
  }
}

TEST(RunSettlement, SegmentEndsInsideARun) {
  // 1 ms phases; a 600-pixel run spans about 4 ms, so the income changes
  // three or four times inside it, and its last repetitions brown out.
  const SquareSource src(4e-3, 0.2e-3, /*period=*/2e-3, /*duty=*/0.5);
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  RunTwin t(src, cfg);
  for (int k = 0; k < 40; ++k) {
    const dev::SpendRun run = pixel_run(9, 600);
    const double t0 = t.runs.now();
    const std::size_t done = t.settle({{}, {&run, 1}});
    t.expect_same("segment ends inside a run");
    if (done == run.reps * run.n) {
      EXPECT_GT(t.runs.now() - t0, 3e-3);
    }
    if (!t.runs.on()) t.recharge();
  }
  EXPECT_GT(t.runs.failures(), 0);
}

TEST(RunSettlement, FullCapacitorClampsInTheHighPhase) {
  // Parked through the 4 mW phase the store sits at v_max; a pixel's LEA
  // draw then earns more than it spends, so the clamp engages inside runs.
  const SquareSource src(4e-3, 0.2e-3, /*period=*/0.02, /*duty=*/0.5);
  CapacitorConfig cfg;
  cfg.capacitance_f = 10e-6;
  RunTwin t(src, cfg);
  t.runs.idle_until(3e-3);
  t.draws.idle_until(3e-3);
  ASSERT_EQ(t.runs.voltage(), cfg.v_max);
  const dev::Device& d = board();
  for (int k = 0; k < 25; ++k) {
    const dev::SpendRun lea = run_of({d.lea_mac_cost(25), d.cpu_ops_cost(4.0)}, 30, 0);
    const dev::SpendRun pixel = pixel_run(9, 20, 0);
    const dev::SpendRun both[] = {lea, pixel};
    t.settle({{}, both});
    t.expect_same("clamped runs");
  }
  EXPECT_GT(t.runs.voltage(), 3.5);
  EXPECT_LT(t.runs.now(), 0.01);  // still in the high phase
}

TEST(RunSettlement, AWindowCapRunMatchesPerOp) {
  // A device that fills its prepaid window with one charge run (4096
  // draws: one MAC through the ops, then 1023 as a run entry) settles
  // exactly as a device that made every draw through the ops.
  const SquareSource src(4e-3, 0.2e-3, /*period=*/0.02, /*duty=*/0.5);
  CapacitorConfig cfg;
  cfg.capacitance_f = 100e-6;
  CapacitorSupply s_runs(src, cfg), s_ops(src, cfg);
  dev::Device runs, ops;
  runs.attach_supply(&s_runs);
  ops.attach_supply(&s_ops);
  const auto mac_ops = [](dev::Device& dv) {
    dv.read(dev::MemKind::kFram, 10);
    dv.read(dev::MemKind::kFram, 11);
    dv.cpu_mac_cycles();
    dv.cpu_ops(2);
  };
  const dev::ChargePattern mac{runs.read_cost(dev::MemKind::kFram),
                               runs.read_cost(dev::MemKind::kFram), runs.mac_cost(),
                               runs.cpu_ops_cost(2)};
  mac_ops(runs);  // arms the window
  ASSERT_TRUE(runs.prepaid_window_open());
  EXPECT_EQ(runs.charge_run(mac, 5000), (4096u - 4u) / 4u);
  for (int i = 0; i < 1024; ++i) mac_ops(ops);
  runs.settle_supply();
  ops.settle_supply();
  expect_same_state(s_runs, s_ops, "one window-cap run");
  // Then many more windows, the runs cut at each cap, until brown-out.
  for (int k = 0; k < 60 && !ops.browned_out(); ++k) {
    runs.charge_loop(mac, 3000, [&](std::size_t) { mac_ops(runs); });
    for (int i = 0; i < 3000 && !ops.browned_out(); ++i) mac_ops(ops);
    runs.settle_supply();
    ops.settle_supply();
    expect_same_state(s_runs, s_ops, "window-cap runs");
  }
  EXPECT_EQ(runs.browned_out(), ops.browned_out());
  EXPECT_EQ(runs.trace().total_energy(), ops.trace().total_energy());
}

}  // namespace
}  // namespace ehdnn::power
