// The step-based execution core (core/flex/executor.h): policy
// equivalence against pre-refactor golden outputs, incremental
// start()/step()/finished() semantics, and suspend/resume interleaving.
//
// The golden table was captured from the monolithic pre-refactor runtimes
// (the run-to-completion loops each runtime carried before the
// IntermittentExecutor split) on the tiny_models.h models, continuous power
// and a 0.68 uF / 1 mW constant-harvest schedule. Any drift in outputs,
// modeled time/energy, reboot counts, or commit/checkpoint counts means
// the executor changed the device-operation sequence — exactly what the
// refactor must not do.

#include <gtest/gtest.h>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "quant/quantize.h"
#include "sim/scenario.h"
#include "tiny_models.h"
#include "util/rng.h"

namespace ehdnn::flex {
namespace {

using fx::q15_t;
using testutil::dense_model;
using testutil::mixed_model;
using testutil::random_tensor;

struct GoldenCase {
  const char* runtime;
  bool bcm_model;    // mixed (BCM) model vs dense twin
  bool intermittent; // 0.68 uF / 1 mW constant harvest vs continuous
  std::vector<q15_t> output;
  double on_seconds;
  double energy_j;
  long reboots;
  long checkpoints;
  long progress_commits;
  long units_executed;
};

// Captured from the pre-refactor runtimes at commit 012c8c8 (model seed
// 1234, input drawn after model construction; see file comment).
const GoldenCase kGolden[] = {
    {"base", false, false, {-8379, -14080, -13532, -2068},
     0.0012615, 4.9289079999999997e-06, 0, 0, 0, 23},
    {"sonic", false, false, {-8379, -14080, -13532, -2068},
     0.0021444375000000001, 1.235348974999978e-05, 0, 0, 177, 177},
    {"sonic", false, true, {-8379, -14080, -13532, -2068},
     0.0023435625000000002, 1.349225324999998e-05, 5, 0, 178, 178},
    {"tails", true, false, {0, 0, 0, 0},
     0.0013021249999999999, 5.4254245000000001e-06, 0, 0, 24, 24},
    {"tails", true, true, {0, 0, 0, 0},
     0.0014976875000000001, 6.2444537500000019e-06, 2, 0, 24, 24},
    {"tails", false, true, {-8379, -14080, -13532, -2068},
     0.0013523750000000001, 5.3117555000000013e-06, 1, 0, 23, 23},
    {"flex", true, false, {0, 0, 0, 0},
     0.0013021249999999999, 5.4684225000000008e-06, 0, 7, 0, 23},
    {"flex", true, true, {0, 0, 0, 0},
     0.0015321250000000001, 6.3027165000000016e-06, 2, 11, 0, 23},
    {"flex", false, true, {-8379, -14080, -13532, -2068},
     0.0013526874999999999, 5.3446137500000014e-06, 1, 12, 0, 23},
};

RunStats run_case(const GoldenCase& gc) {
  Rng rng(1234);
  const auto qm = gc.bcm_model ? mixed_model(rng) : dense_model(rng);
  const auto input = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));
  const auto policy = sim::make_policy(gc.runtime);

  dev::Device dev;
  power::ContinuousPower cont;
  power::ConstantSource src(1.0e-3);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 0.68e-6;
  power::CapacitorSupply cap(src, cfg);
  dev.attach_supply(gc.intermittent ? static_cast<dev::PowerSupply*>(&cap) : &cont);
  const auto cm = ace::compile(qm, dev);
  return IntermittentExecutor(*policy).run(dev, cm, input);
}

class PolicyEquivalence : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(PolicyEquivalence, BitExactAgainstPreRefactorGolden) {
  const GoldenCase gc = GetParam();
  const RunStats st = run_case(gc);
  ASSERT_TRUE(st.completed()) << gc.runtime;
  EXPECT_EQ(st.output, gc.output) << gc.runtime << " output drifted";
  EXPECT_DOUBLE_EQ(st.on_seconds, gc.on_seconds) << gc.runtime;
  EXPECT_DOUBLE_EQ(st.energy_j, gc.energy_j) << gc.runtime;
  EXPECT_EQ(st.reboots, gc.reboots) << gc.runtime;
  EXPECT_EQ(st.checkpoints, gc.checkpoints) << gc.runtime;
  EXPECT_EQ(st.progress_commits, gc.progress_commits) << gc.runtime;
  EXPECT_EQ(st.units_executed, gc.units_executed) << gc.runtime;
}

INSTANTIATE_TEST_SUITE_P(Golden, PolicyEquivalence, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           const GoldenCase& c = info.param;
                           std::string name = c.runtime;
                           name += c.bcm_model ? "_bcm" : "_dense";
                           name += c.intermittent ? "_harvest" : "_cont";
                           return name;
                         });

// The one-call run() and a manual start()/step() drain — with the run
// suspended between every slice — must agree exactly: stats, outputs,
// and the device-side trace totals.
TEST(Executor, IncrementalDrainMatchesInfer) {
  for (const char* key : {"base", "sonic", "tails", "flex", "tile", "tile:t=2"}) {
    const bool bcm = std::string(key) == "flex" || std::string(key) == "tails";
    // BASE has no intermittence support: give it a one-burst capacitor so
    // it completes; the checkpointing runtimes get many power cycles.
    const double cap_f = std::string(key) == "base" ? 1.0e-3 : 0.68e-6;
    Rng rng(1234);
    const auto qm = bcm ? mixed_model(rng) : dense_model(rng);
    const auto input = quant::quantize_input(
        qm, random_tensor(qm.layers.front().in_shape, rng));

    auto run_infer = [&] {
      dev::Device dev;
      power::ConstantSource src(1.0e-3);
      power::CapacitorConfig cfg;
      cfg.capacitance_f = cap_f;
      power::CapacitorSupply cap(src, cfg);
      dev.attach_supply(&cap);
      const auto cm = ace::compile(qm, dev);
      const auto policy = sim::make_policy(key);
      return IntermittentExecutor(*policy).run(dev, cm, input);
    };
    auto run_steps = [&](long* steps_out) {
      dev::Device dev;
      power::ConstantSource src(1.0e-3);
      power::CapacitorConfig cfg;
      cfg.capacitance_f = cap_f;
      power::CapacitorSupply cap(src, cfg);
      dev.attach_supply(&cap);
      const auto cm = ace::compile(qm, dev);
      auto policy = sim::make_policy(key);
      IntermittentExecutor ex(*policy);
      ex.start(dev, cm, input);
      long steps = 0;
      while (!ex.finished()) {
        ex.step();
        ++steps;
      }
      *steps_out = steps;
      return ex.take_stats();
    };

    const RunStats a = run_infer();
    long steps = 0;
    const RunStats b = run_steps(&steps);
    ASSERT_TRUE(a.completed()) << key;
    ASSERT_TRUE(b.completed()) << key;
    EXPECT_EQ(a.output, b.output) << key;
    EXPECT_DOUBLE_EQ(a.on_seconds, b.on_seconds) << key;
    EXPECT_DOUBLE_EQ(a.off_seconds, b.off_seconds) << key;
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j) << key;
    EXPECT_EQ(a.reboots, b.reboots) << key;
    EXPECT_EQ(a.checkpoints, b.checkpoints) << key;
    EXPECT_EQ(a.progress_commits, b.progress_commits) << key;
    EXPECT_EQ(a.units_executed, b.units_executed) << key;
    // One slice per boot + one per layer at minimum; failures add more.
    EXPECT_GT(steps, static_cast<long>(qm.layers.size())) << key;
  }
}

// Suspend/resume at step granularity: two runs interleaved slice-by-slice
// on independent devices match the same runs executed back-to-back.
TEST(Executor, InterleavedRunsMatchSequential) {
  Rng rng(1234);
  const auto qm = mixed_model(rng);
  const auto in1 = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));
  const auto in2 = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));

  struct Rig {
    dev::Device dev;
    power::ConstantSource src{1.0e-3};
    power::CapacitorSupply cap;
    std::unique_ptr<RuntimePolicy> policy;
    IntermittentExecutor ex;
    explicit Rig(double cap_f)
        : cap(src, [&] {
            power::CapacitorConfig c;
            c.capacitance_f = cap_f;
            return c;
          }()),
          policy(make_flex_policy()),
          ex(*policy) {
      dev.attach_supply(&cap);
    }
  };

  // Sequential reference.
  std::vector<q15_t> ref1, ref2;
  double ref1_on = 0.0, ref2_on = 0.0;
  {
    Rig r(0.68e-6);
    const auto cm = ace::compile(qm, r.dev);
    const RunStats st = r.ex.run(r.dev, cm, in1);
    ASSERT_TRUE(st.completed());
    ref1 = st.output;
    ref1_on = st.on_seconds;
  }
  {
    Rig r(1.0e-6);
    const auto cm = ace::compile(qm, r.dev);
    const RunStats st = r.ex.run(r.dev, cm, in2);
    ASSERT_TRUE(st.completed());
    ref2 = st.output;
    ref2_on = st.on_seconds;
  }

  // Interleaved: alternate one slice each until both finish.
  Rig r1(0.68e-6), r2(1.0e-6);
  const auto cm1 = ace::compile(qm, r1.dev);
  const auto cm2 = ace::compile(qm, r2.dev);
  r1.ex.start(r1.dev, cm1, in1);
  r2.ex.start(r2.dev, cm2, in2);
  while (!r1.ex.finished() || !r2.ex.finished()) {
    if (!r1.ex.finished()) r1.ex.step();
    if (!r2.ex.finished()) r2.ex.step();
  }
  const RunStats s1 = r1.ex.take_stats();
  const RunStats s2 = r2.ex.take_stats();
  ASSERT_TRUE(s1.completed());
  ASSERT_TRUE(s2.completed());
  EXPECT_EQ(s1.output, ref1);
  EXPECT_EQ(s2.output, ref2);
  EXPECT_DOUBLE_EQ(s1.on_seconds, ref1_on);
  EXPECT_DOUBLE_EQ(s2.on_seconds, ref2_on);
}

TEST(Executor, ApiSemantics) {
  Rng rng(1234);
  const auto qm = dense_model(rng);
  const auto input = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));

  auto policy = make_ace_policy();
  IntermittentExecutor ex(*policy);
  // No run armed: finished, and step() is a no-op.
  EXPECT_TRUE(ex.finished());
  EXPECT_FALSE(ex.step());

  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  ex.start(dev, cm, input);
  EXPECT_FALSE(ex.finished());
  while (ex.step()) {
  }
  EXPECT_TRUE(ex.finished());
  EXPECT_FALSE(ex.step());  // idempotent after completion
  EXPECT_TRUE(ex.stats().completed());
  EXPECT_EQ(ex.stats().reboots, 0);
  EXPECT_FALSE(ex.stats().output.empty());

  // The executor is reusable: a second start() resets the run.
  ex.start(dev, cm, input);
  EXPECT_FALSE(ex.finished());
  while (ex.step()) {
  }
  EXPECT_TRUE(ex.stats().completed());
}

// A DNF run (no intermittence support, burst too small) ends through the
// same incremental interface, with the livelock guard deciding.
TEST(Executor, DnfSurfacesThroughStepApi) {
  Rng rng(1234);
  const auto qm = dense_model(rng);
  const auto input = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));

  dev::Device dev;
  power::ConstantSource src(0.5e-3);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1.0e-6;
  power::CapacitorSupply cap(src, cfg);
  dev.attach_supply(&cap);
  const auto cm = ace::compile(qm, dev);

  auto policy = make_ace_policy();
  IntermittentExecutor ex(*policy);
  RunOptions opts;
  opts.max_reboots = 3000;
  ex.start(dev, cm, input, opts);
  while (ex.step()) {
  }
  EXPECT_FALSE(ex.stats().completed());
  EXPECT_EQ(ex.stats().outcome, Outcome::kDidNotFinish);
  EXPECT_GT(ex.stats().reboots, 0);
  // This DNF spun to the reboot cap with the watchdog disabled (the
  // default), so it is NOT flagged as a detected livelock.
  EXPECT_FALSE(ex.stats().livelock);
}

TEST(Executor, FutileBootWatchdogFlagsLivelock) {
  // ACE restarts from scratch every cycle; a capacitor whose burst cannot
  // push the whole inference through one power cycle therefore banks
  // nothing, forever. With max_futile_boots set, the executor must end
  // the run as kDidNotFinish with the livelock flag after exactly that
  // many futile boots — instead of spinning to max_reboots.
  Rng rng(1234);
  const auto qm = dense_model(rng);
  const auto input = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));

  dev::Device dev;
  power::ConstantSource src(0.5e-3);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1.0e-6;
  power::CapacitorSupply cap(src, cfg);
  dev.attach_supply(&cap);
  const auto cm = ace::compile(qm, dev);

  auto policy = make_ace_policy();
  IntermittentExecutor ex(*policy);
  RunOptions opts;
  opts.max_reboots = 3000;
  opts.max_futile_boots = 7;
  ex.start(dev, cm, input, opts);
  while (ex.step()) {
  }
  EXPECT_FALSE(ex.stats().completed());
  EXPECT_EQ(ex.stats().outcome, Outcome::kDidNotFinish);
  EXPECT_TRUE(ex.stats().livelock);
  // Tripped at the watchdog threshold, far below the reboot cap. ACE's
  // own patience detector would fire later (its stale-attempt budget is
  // larger than 7), so the watchdog is what ended this run.
  EXPECT_LE(ex.stats().reboots, 8);

  // A runtime that banks progress under the SAME supply must complete
  // with the watchdog armed: banked commits reset the futile counter.
  dev::Device dev2;
  power::ConstantSource src2(0.5e-3);
  power::CapacitorSupply cap2(src2, cfg);
  dev2.attach_supply(&cap2);
  const auto cm2 = ace::compile(qm, dev2);
  auto sonic = make_sonic_policy();
  IntermittentExecutor ex2(*sonic);
  RunOptions opts2 = opts;
  opts2.max_futile_boots = 2;  // tighter than the reboot count below
  ex2.start(dev2, cm2, input, opts2);
  while (ex2.step()) {
  }
  EXPECT_TRUE(ex2.stats().completed());
  EXPECT_FALSE(ex2.stats().livelock);
  // More power cycles than the watchdog budget, yet no trip: every boot
  // banked at least one commit, so the futile counter kept resetting.
  EXPECT_GT(ex2.stats().reboots, 2);
}

// A run abandoned at a brown-out (here by the livelock watchdog) leaves
// the device latched and un-rebooted. The next run armed on it starts
// unlatched: its first op draws from whatever the supply holds after the
// park, exactly as it did when brown-outs were delivered by unwinding.
// The pinned stats of that second run were captured before the latch.
TEST(Executor, RunAfterAbandonedRunDrawsFromSupply) {
  Rng rng(1234);
  const auto qm = dense_model(rng);
  const auto input = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, rng));

  dev::Device dev;
  power::ConstantSource src(0.5e-3);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1.0e-6;
  power::CapacitorSupply cap(src, cfg);
  dev.attach_supply(&cap);
  const auto cm = ace::compile(qm, dev);

  auto policy = make_ace_policy();
  IntermittentExecutor ex(*policy);
  RunOptions opts;
  opts.max_reboots = 3000;
  opts.max_futile_boots = 7;
  const RunStats first = ex.run(dev, cm, input, opts);
  ASSERT_TRUE(first.livelock);
  EXPECT_TRUE(dev.browned_out());

  cap.idle_until(cap.now() + 2e-3);  // a short park: not yet back at v_on
  const RunStats second = ex.run(dev, cm, input, opts);
  EXPECT_TRUE(second.livelock);
  EXPECT_EQ(second.reboots, 6);
  EXPECT_EQ(second.units_executed, 88);
  EXPECT_EQ(second.on_seconds, 0.0053886875000000002);
  EXPECT_EQ(second.energy_j, 2.1994363749999302e-05);
}

}  // namespace
}  // namespace ehdnn::flex
