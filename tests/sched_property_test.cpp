// Property / metamorphic tests for scheduling v2 (deadline-aware tier
// selection, periodicity forecasting, energy-budgeted admission). Where
// sched_test.cpp pins point behaviors, this suite pins INVARIANTS across
// seeded randomized inputs:
//
//   (a) admission control never lowers in-deadline completions vs
//       admit-all on the same seed (skipping a hopeless release can only
//       donate its charge and queue slot to later releases);
//   (b) the periodic forecaster locks the true period of square/solar
//       income and beats the EMA's forecast error there;
//   (c) the completion model's predicted per-tier ordering matches the
//       measured ordering under continuous power, and its predictions
//       degrade monotonically as income falls.
//
// Everything is seeded and deterministic: a failure reproduces exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "power/factory.h"
#include "sched/adaptive.h"
#include "sched_test_util.h"
#include "sim/fleet.h"

namespace ehdnn::sched {
namespace {

using fx::q15_t;
using testutil::income_samples;
using testutil::record_samples;

// ------------------------------------------------- (a) admission safety

// A randomized duty-cycled population on a random square harvest: day
// phases fund MNIST comfortably, night floors cannot meet the deadline.
sim::FleetConfig random_admission_fleet(std::uint64_t seed) {
  Rng rng(seed);
  const double period = rng.uniform(1.5, 3.0);
  const double duty = rng.uniform(0.4, 0.7);
  const double hi = rng.uniform(4e-3, 6e-3);
  const double lo = rng.uniform(0.02e-3, 0.2e-3);

  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.source = "square:hi=" + std::to_string(hi) + ",lo=" + std::to_string(lo) +
               ",period=" + std::to_string(period) + ",duty=" + std::to_string(duty);
  cfg.offset_spread_s = rng.uniform(0.0, period);
  sim::FleetGroup g;
  g.name = "prop";
  g.count = 2;
  g.task = models::Task::kMnist;
  g.agenda.runtime = "adaptive";
  g.agenda.jobs = 8;
  g.agenda.period_s = rng.uniform(0.3, 0.6);
  g.agenda.deadline_s = rng.uniform(0.2, 0.4);
  g.capacitance_f = 10e-6;
  g.sched_spec = "adaptive:sel=deadline,admit=budget,fc=periodic,probe=1";
  cfg.groups.push_back(g);
  return cfg;
}

TEST(AdmissionProperty, NeverLowersInDeadlineVsAdmitAllOnSameSeed) {
  int total_skips = 0;
  for (const std::uint64_t seed : {11u, 23u, 37u, 51u, 68u, 94u}) {
    const sim::FleetConfig cfg = random_admission_fleet(seed);
    const sim::FleetReport with_admission = sim::run_fleet(cfg);
    sim::FleetRunOptions all;
    all.force_admit_all = true;
    const sim::FleetReport admit_all = sim::run_fleet(cfg, all);

    EXPECT_GE(with_admission.jobs_in_deadline, admit_all.jobs_in_deadline)
        << "seed " << seed << " (" << cfg.source << "): admission lowered the "
        << "in-deadline count " << with_admission.jobs_in_deadline << " < "
        << admit_all.jobs_in_deadline;
    EXPECT_EQ(admit_all.jobs_skipped, 0) << "admit-all must never skip";
    EXPECT_EQ(with_admission.total_jobs, admit_all.total_jobs);
    total_skips += with_admission.jobs_skipped;
  }
  // The property must bite: across the seeds, admission has to have
  // actually refused some releases, or this test degenerated to
  // comparing identical runs.
  EXPECT_GT(total_skips, 0);
}

TEST(AdmissionProperty, SkippedReleasesNeverBootAndReclaimEnergy) {
  const sim::FleetConfig cfg = random_admission_fleet(23u);
  const sim::FleetReport r = sim::run_fleet(cfg);
  ASSERT_GT(r.jobs_skipped, 0) << "fixture: this seed must produce skips";
  for (const auto& d : r.devices) {
    for (const auto& j : d.jobs) {
      if (!j.skipped_infeasible) continue;
      EXPECT_EQ(j.reboots, 0);
      EXPECT_EQ(j.tier_switches, 0);
      EXPECT_DOUBLE_EQ(j.energy_j, 0.0);
      EXPECT_GT(j.energy_reclaimed_j, 0.0);
      EXPECT_FALSE(j.met_deadline);
      EXPECT_DOUBLE_EQ(j.finish_s, j.start_s);
    }
  }
}

// --------------------------------------------- (b) periodicity locking

struct PeriodicSourceCase {
  const char* name;
  const char* spec;      // power::make_harvest_source grammar
  double true_period_s;  // the source's ground-truth period
};

class PeriodicLock : public ::testing::TestWithParam<PeriodicSourceCase> {};

TEST_P(PeriodicLock, LocksTruePeriodWithinKCyclesAndBeatsEma) {
  const PeriodicSourceCase pc = GetParam();
  const auto src = power::make_harvest_source(pc.spec);
  const double dt = pc.true_period_s / 20.0;  // 20 samples per cycle
  const int total = 400;                      // 20 cycles of history
  const std::vector<double> samples = income_samples(*src, dt, total);

  // Feed incrementally; the period must be confirmed within K = 5 cycles
  // (detection fundamentally needs >= 3 repetitions in history).
  auto fc = make_periodic_forecaster(1e-3, 0.5);
  constexpr int kMaxLockCycles = 5;
  int locked_at = -1;
  for (int i = 0; i < total; ++i) {
    fc->record_at(samples[static_cast<std::size_t>(i)], dt * i);
    if (locked_at < 0 && fc->period_s() > 0.0) locked_at = i;
  }
  ASSERT_GE(locked_at, 0) << pc.name << ": never confirmed a period";
  EXPECT_LE(locked_at, kMaxLockCycles * 20) << pc.name << ": locked too late";
  // The confirmed period must be the true one (or a harmonic-free
  // estimate within the resampling grid's resolution).
  EXPECT_NEAR(fc->period_s(), pc.true_period_s, 0.15 * pc.true_period_s) << pc.name;

  // One-step-ahead forecast error over fresh cycles: the locked phase
  // table must beat a replayed EMA on the same stream.
  auto periodic = make_periodic_forecaster(1e-3, 0.5);
  auto ema = make_ema_forecaster(1e-3, 0.5);
  double err_periodic = 0.0, err_ema = 0.0;
  for (int i = 0; i < total; ++i) {
    const double t = dt * i;
    const double x = samples[static_cast<std::size_t>(i)];
    if (i >= total / 2) {  // score only the post-warmup half
      err_periodic += std::abs(periodic->forecast_at_w(t) - x);
      err_ema += std::abs(ema->forecast_at_w(t) - x);
    }
    periodic->record_at(x, t);
    ema->record_at(x, t);
  }
  EXPECT_LT(err_periodic, err_ema)
      << pc.name << ": the periodic forecaster must beat the EMA on its home turf";
}

INSTANTIATE_TEST_SUITE_P(
    Sources, PeriodicLock,
    ::testing::Values(
        PeriodicSourceCase{"square", "square:hi=5e-3,lo=0.2e-3,period=0.8,duty=0.5", 0.8},
        PeriodicSourceCase{"square_skewed", "square:hi=6e-3,lo=0.1e-3,period=2,duty=0.3", 2.0},
        PeriodicSourceCase{"solar", "solar:peak=5e-3,day=1.5,daylight=0.6,floor=0.1e-3", 1.5}),
    [](const ::testing::TestParamInfo<PeriodicSourceCase>& info) {
      return std::string(info.param.name);
    });

TEST(PeriodicProperty, DoesNotLockNoise) {
  // Metamorphic control: a seeded aperiodic stream must not confirm a
  // period (the conf threshold is the guard against spurious locks).
  Rng rng(7);
  auto fc = make_periodic_forecaster(1e-3, 0.5);
  for (int i = 0; i < 300; ++i) {
    fc->record_at(rng.uniform(0.0, 5e-3), 0.05 * i);
  }
  EXPECT_DOUBLE_EQ(fc->period_s(), 0.0);
}

// ------------------------------------- (c) completion-model consistency

TEST(CompletionModelProperty, PredictedOrderingMatchesMeasuredOnContinuousPower) {
  Rng rng(0x9d);
  const auto qm_c = testutil::mixed_model(rng);
  const auto qm_d = testutil::dense_model(rng);
  const auto input =
      quant::quantize_input(qm_c, testutil::random_tensor(qm_c.layers.front().in_shape, rng));

  // Measured: each tier's fixed policy under bench power.
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm_c = ace::compile(qm_c, dev);
  const auto cm_d = ace::compile(qm_d, dev, /*co_resident=*/true);

  struct Measured {
    std::string key;
    double on_s;
  };
  std::vector<Measured> measured;
  const struct {
    const char* key;
    bool dense;
  } tiers[] = {{"base", true},
               {"ace", false},
               {"flex", false},
               {"sonic", true},
               {"tile", true}};
  for (const auto& t : tiers) {
    const std::string key = t.key;
    auto policy = key == "flex"    ? flex::make_flex_policy()
                  : key == "sonic" ? flex::make_sonic_policy()
                  : key == "tile"  ? flex::make_tile_policy()
                                   : flex::make_ace_policy();
    flex::IntermittentExecutor ex(*policy);
    const flex::RunStats st = ex.run(dev, t.dense ? cm_d : cm_c, input);
    ASSERT_TRUE(st.completed()) << t.key;
    measured.push_back({t.key, st.on_seconds});
  }

  // Predicted: the calibrated completion model with an unbounded burst
  // (continuous power) must order the tiers the same way.
  const CompletionModel m = CompletionModel::calibrate(cm_c, &cm_d, dev.config());
  ASSERT_EQ(m.tiers().size(), 5u);
  auto measured_on = [&](const std::string& key) {
    for (const auto& t : measured) {
      if (t.key == key) return t.on_s;
    }
    ADD_FAILURE() << "no measured tier " << key;
    return 0.0;
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& a : m.tiers()) {
    for (const auto& b : m.tiers()) {
      const double pa = m.predict_s(a, inf, 0.0, 0.0);
      const double pb = m.predict_s(b, inf, 0.0, 0.0);
      if (pa < pb) {
        EXPECT_LT(measured_on(a.key), measured_on(b.key))
            << a.key << " predicted faster than " << b.key
            << " but measured slower — the model's ordering is wrong";
      }
    }
    // The calibration replays the same modeled machine, so the
    // continuous-power prediction is not just ordered but close.
    EXPECT_NEAR(m.predict_s(a, inf, 0.0, 0.0), measured_on(a.key),
                0.15 * measured_on(a.key))
        << a.key;
  }
}

TEST(CompletionModelProperty, PredictionsDegradeMonotonicallyWithIncome) {
  Rng rng(0x9e);
  const auto qm_c = testutil::mixed_model(rng);
  const auto qm_d = testutil::dense_model(rng);
  dev::Device dev;
  const auto cm_c = ace::compile(qm_c, dev);
  const auto cm_d = ace::compile(qm_d, dev, /*co_resident=*/true);
  const CompletionModel m = CompletionModel::calibrate(cm_c, &cm_d, dev.config());

  const double burst = 30e-6;
  for (const auto& t : m.tiers()) {
    double prev = 0.0;
    // Sweep income downward: predicted completion must never improve.
    for (const double w : {8e-3, 4e-3, 2e-3, 1e-3, 0.5e-3, 0.1e-3}) {
      const double pred = m.predict_s(t, burst, w, 0.0);
      EXPECT_GE(pred, prev) << t.key << " at income " << w;
      EXPECT_GT(pred, 0.0) << t.key;
      prev = pred;
    }
    // More burst can only help.
    EXPECT_LE(m.predict_s(t, 2 * burst, 1e-3, 0.0), m.predict_s(t, burst, 1e-3, 0.0))
        << t.key;
    // Overhead can only hurt.
    EXPECT_GE(m.predict_s(t, burst, 1e-3, 5e-6), m.predict_s(t, burst, 1e-3, 0.0))
        << t.key;
  }

  // Restart-from-scratch tiers that cannot fit one burst never finish.
  const CompletionModel::Tier* ace_tier = m.tier("ace");
  ASSERT_NE(ace_tier, nullptr);
  EXPECT_TRUE(std::isinf(m.predict_s(*ace_tier, 1e-9, 0.1e-3, 0.0)));
  // Persistent tiers with the same starvation still finish eventually.
  const CompletionModel::Tier* sonic_tier = m.tier("sonic");
  ASSERT_NE(sonic_tier, nullptr);
  EXPECT_TRUE(std::isfinite(m.predict_s(*sonic_tier, 1e-6, 0.1e-3, 0.0)));
}

}  // namespace
}  // namespace ehdnn::sched
