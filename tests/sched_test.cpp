// The energy-aware scheduling subsystem (src/sched): harvest forecasting,
// per-boot adaptive policy selection, duty-cycled job queues, and the
// heterogeneous fleet config they plug into.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "core/flex/runtime.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/factory.h"
#include "power/failure_schedule.h"
#include "power/monitor.h"
#include "quant/quantize.h"
#include "sched/adaptive.h"
#include "sched/agenda.h"
#include "sched/forecast.h"
#include "sched_test_util.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace ehdnn::sched {
namespace {

using fx::q15_t;
using testutil::continuous_oracle;
using testutil::dense_model;
using testutil::income_samples;
using testutil::mixed_model;
using testutil::random_tensor;
using testutil::record_n;
using testutil::record_samples;

// ---------------------------------------------------------------- forecast

TEST(Forecast, EmaConvergesTowardSamples) {
  auto fc = make_ema_forecaster(1e-3, 0.5);
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 1e-3);  // prior before any sample
  record_n(*fc, 5e-3, 20);
  EXPECT_NEAR(fc->forecast_w(), 5e-3, 1e-6);
  EXPECT_EQ(fc->samples(), 20);
  fc->reset();
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 1e-3);
  EXPECT_EQ(fc->samples(), 0);
}

TEST(Forecast, WindowIsMeanOfLastN) {
  auto fc = make_window_forecaster(1e-3, 3);
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 1e-3);
  fc->record(1.0);
  fc->record(2.0);
  fc->record(3.0);
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 2.0);
  fc->record(7.0);  // evicts the 1.0
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 4.0);
}

TEST(Forecast, ConstIgnoresSamples) {
  auto fc = make_const_forecaster(2e-3);
  fc->record(99.0);
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 2e-3);
}

TEST(Forecast, FactoryParsesSpecs) {
  EXPECT_EQ(make_forecaster("ema")->name(), "ema");
  EXPECT_EQ(make_forecaster("ema:prior=2e-3,alpha=0.25")->name(), "ema");
  EXPECT_EQ(make_forecaster("window:n=4")->name(), "window");
  EXPECT_EQ(make_forecaster("const:w=1e-3")->name(), "const");
  EXPECT_EQ(make_forecaster("periodic")->name(), "periodic");
  EXPECT_EQ(make_forecaster("periodic:prior=2e-3,alpha=0.7,bins=8,conf=0.5")->name(),
            "periodic");
  EXPECT_DOUBLE_EQ(make_forecaster("const:w=7e-3")->forecast_w(), 7e-3);
  EXPECT_THROW(make_forecaster("oracle"), Error);
  EXPECT_THROW(make_forecaster("ema:alpha=nope"), Error);
  EXPECT_THROW(make_forecaster("ema:typo=1"), Error);
  EXPECT_THROW(make_forecaster("window:n=0"), Error);
  EXPECT_THROW(make_forecaster("periodic:bins=1"), Error);
  EXPECT_THROW(make_forecaster("periodic:conf=2"), Error);
  EXPECT_FALSE(forecaster_kinds().empty());
}

TEST(Forecast, PeriodicFallsBackToEmaUntilLocked) {
  // A constant stream never confirms a period: the periodic forecaster
  // must behave exactly like the EMA it wraps.
  auto fc = make_periodic_forecaster(1e-3, 0.5);
  auto ema = make_ema_forecaster(1e-3, 0.5);
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 1e-3);
  record_n(*fc, 4e-3, 10);
  record_n(*ema, 4e-3, 10);
  EXPECT_DOUBLE_EQ(fc->forecast_w(), ema->forecast_w());
  EXPECT_DOUBLE_EQ(fc->period_s(), 0.0);
  fc->reset();
  EXPECT_DOUBLE_EQ(fc->forecast_w(), 1e-3);
  EXPECT_EQ(fc->samples(), 0);
}

TEST(Forecast, PeriodicLocksSquareWaveAndReadsPhase) {
  // A square income sequence (hi/lo, 1 s period, timestamped samples):
  // the forecaster must confirm a period near 1 s and answer
  // forecast_at_w by PHASE — including instants it never sampled.
  const power::SquareSource src(5e-3, 0.2e-3, /*period_s=*/1.0, /*duty=*/0.5);
  auto fc = make_periodic_forecaster(1e-3, 0.5);
  record_samples(*fc, income_samples(src, 0.05, 120), 0.05);  // 6 s of history
  ASSERT_GT(fc->period_s(), 0.0);
  EXPECT_NEAR(fc->period_s(), 1.0, 0.15);
  // Mid-hi and mid-lo phases far in the future.
  EXPECT_GT(fc->forecast_at_w(100.25), 2e-3);
  EXPECT_LT(fc->forecast_at_w(100.75), 2e-3);
}

TEST(Forecast, AdaptiveSpecParses) {
  const AdaptiveSpec def = parse_adaptive_spec("adaptive");
  EXPECT_EQ(def.forecaster, "ema");
  EXPECT_EQ(def.sel, TierSelect::kIncome);
  EXPECT_EQ(def.admit, Admission::kAll);
  const AdaptiveSpec s =
      parse_adaptive_spec("adaptive:fc=window,n=4,prior=2e-3,rich=5e-3,demote=3");
  EXPECT_EQ(s.forecaster, "window:prior=2e-3,n=4");
  EXPECT_DOUBLE_EQ(s.rich_w, 5e-3);
  EXPECT_EQ(s.demote_boots, 3);
  EXPECT_THROW(parse_adaptive_spec("adaptive:bogus=1"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:demote=0"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:demote=1e30"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:demote=2.9"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:fc=window,n=1e300"), Error);
  EXPECT_THROW(parse_adaptive_spec("sched"), Error);
  // A repeated key is an error, not last-wins, and the error names it.
  try {
    parse_adaptive_spec("adaptive:rich=1e-3,rich=5e-3");
    ADD_FAILURE() << "repeated rich accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key \"rich\""), std::string::npos)
        << e.what();
  }
}

TEST(Forecast, AdaptiveSpecRejectsOutOfRangeThresholds) {
  // Each threshold is range-checked where it is parsed, and the error
  // names the key (the policy constructor's check names none).
  for (const char* key : {"rich", "full", "ckpt_margin", "slack"}) {
    const std::string spec = std::string("adaptive:") + key + "=-1";
    try {
      parse_adaptive_spec(spec);
      ADD_FAILURE() << spec << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(key) + " must be in [0, inf)"),
                std::string::npos)
          << spec << ": " << e.what();
    }
    EXPECT_THROW(parse_adaptive_spec(std::string("adaptive:") + key + "=nan"), Error) << key;
    // Zero is the inclusive lower bound.
    EXPECT_NO_THROW(parse_adaptive_spec(std::string("adaptive:") + key + "=0")) << key;
  }
  const AdaptiveSpec full = parse_adaptive_spec("adaptive:full=4e-3");
  EXPECT_DOUBLE_EQ(full.full_w, 4e-3);
}

TEST(Forecast, ForecasterSpecRejectsOutOfRangeArguments) {
  // prior and w are in [0, inf), alpha and conf in (0, 1]: each is
  // range-checked where it is parsed, and the error names the key.
  const struct {
    const char* spec;
    const char* error;
  } rejected[] = {
      {"ema:alpha=-3", "alpha must be in (0, 1]"},
      {"ema:alpha=0", "alpha must be in (0, 1]"},
      {"ema:alpha=1.5", "alpha must be in (0, 1]"},
      {"ema:prior=-1e-3", "prior must be in [0, inf)"},
      {"window:prior=-1", "prior must be in [0, inf)"},
      {"const:w=-1e-3", "w must be in [0, inf)"},
      {"periodic:prior=-1", "prior must be in [0, inf)"},
      {"periodic:alpha=2", "alpha must be in (0, 1]"},
      {"periodic:conf=0", "conf must be in (0, 1]"},
      {"periodic:conf=1.01", "conf must be in (0, 1]"},
      {"ema:alpha=0.5,alpha=0.7", "duplicate key \"alpha\""},
  };
  for (const auto& row : rejected) {
    try {
      make_forecaster(row.spec);
      ADD_FAILURE() << row.spec << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << row.spec << ": " << e.what();
    }
  }
  EXPECT_THROW(make_forecaster("ema:prior=inf"), Error);
  EXPECT_THROW(make_forecaster("periodic:conf=nan"), Error);
  // The adaptive spec forwards the keys verbatim, so the policy built from
  // it rejects them the same way.
  EXPECT_THROW(make_adaptive_policy(parse_adaptive_spec("adaptive:fc=ema,alpha=-3")), Error);
  // Inclusive bounds.
  for (const char* spec : {"ema:prior=0,alpha=1", "window:prior=0", "const:w=0",
                           "periodic:prior=0,alpha=1,conf=1"}) {
    EXPECT_NO_THROW(make_forecaster(spec)) << spec;
  }
}

TEST(Forecast, AdaptiveSpecParsesSchedulingV2Keys) {
  const AdaptiveSpec s = parse_adaptive_spec(
      "adaptive:sel=deadline,admit=budget,slack=0.05,probe=2,fc=periodic,bins=8,conf=0.5");
  EXPECT_EQ(s.sel, TierSelect::kDeadline);
  EXPECT_EQ(s.admit, Admission::kBudget);
  EXPECT_DOUBLE_EQ(s.admit_slack_s, 0.05);
  EXPECT_EQ(s.probe_skips, 2);
  EXPECT_EQ(s.forecaster, "periodic:bins=8,conf=0.5");
  // Income mode stays the default and the ladder knobs coexist with v2's.
  const AdaptiveSpec mixed = parse_adaptive_spec("adaptive:sel=income,admit=budget,rich=4e-3");
  EXPECT_EQ(mixed.sel, TierSelect::kIncome);
  EXPECT_EQ(mixed.admit, Admission::kBudget);
  EXPECT_THROW(parse_adaptive_spec("adaptive:sel=psychic"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:admit=maybe"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:slack=-1"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:probe=0"), Error);
  EXPECT_THROW(parse_adaptive_spec("adaptive:probe=2.5"), Error);
}

// ------------------------------------------------------- adaptive policy

TEST(Adaptive, LeanPriorPicksFlexUnderContinuousPower) {
  Rng rng(42);
  const auto qm = mixed_model(rng);
  const auto input =
      quant::quantize_input(qm, random_tensor(qm.layers.front().in_shape, rng));
  const auto oracle = continuous_oracle(qm, input);

  // Default spec: prior 1.2 mW < rich 3 mW -> the flex tier.
  auto policy = make_adaptive_policy();
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  flex::IntermittentExecutor ex(*policy);
  const flex::RunStats st = ex.run(dev, cm, input);

  EXPECT_TRUE(st.completed());
  EXPECT_EQ(st.output, oracle);
  const auto* ap = as_adaptive(policy.get());
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->current_runtime(), "flex");
  EXPECT_EQ(ap->tier_switches(), 0);
}

TEST(Adaptive, RichForecastPromotesToAce) {
  Rng rng(43);
  const auto qm = mixed_model(rng);
  const auto input =
      quant::quantize_input(qm, random_tensor(qm.layers.front().in_shape, rng));

  auto policy = make_adaptive_policy(parse_adaptive_spec("adaptive:fc=const,w=9,rich=5e-3"));
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  flex::IntermittentExecutor ex(*policy);
  const flex::RunStats st = ex.run(dev, cm, input);

  EXPECT_TRUE(st.completed());
  EXPECT_EQ(as_adaptive(policy.get())->current_runtime(), "ace");
  // ACE has no checkpoint machinery: the run must not have paid for any.
  EXPECT_EQ(st.checkpoints, 0);
}

TEST(Adaptive, TinyBurstForcesSonicOnTheDenseTwin) {
  // The tiny_* pair has a FLEX checkpoint CHEAPER than SONIC's largest
  // minimal commit, so its forced-sonic band is empty (any burst too
  // small for FLEX pins straight to tile). A large-k BCM layer makes the
  // checkpoint payload big while SONIC's dense grain stays a fixed
  // 16-MAC tile — opening the band this test targets.
  Rng rng(44);
  auto build = [&](bool bcm) {
    nn::Model m;
    m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
    m.add<nn::ReLU>();
    m.add<nn::MaxPool2D>();
    m.add<nn::Flatten>();
    if (bcm) {
      m.add<nn::BcmDense>(2 * 8 * 8, 128, 128)->init(rng);
    } else {
      m.add<nn::Dense>(2 * 8 * 8, 128)->init(rng);
    }
    m.add<nn::ReLU>();
    m.add<nn::Dense>(128, 4)->init(rng);
    std::vector<nn::Tensor> calib;
    for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 18, 18}, rng));
    return quant::quantize(m, calib, {1, 18, 18});
  };
  const auto qm_c = build(true);
  const auto qm_d = build(false);
  const auto input =
      quant::quantize_input(qm_c, random_tensor(qm_c.layers.front().in_shape, rng));
  const auto oracle_dense = continuous_oracle(qm_d, input);

  auto policy = make_adaptive_policy();
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm_c = ace::compile(qm_c, dev);
  const auto cm_d = ace::compile(qm_d, dev, /*co_resident=*/true);
  DeploymentImage img;
  img.compressed = &cm_c;
  img.dense = &cm_d;
  // Cannot fund a single FLEX checkpoint, but still covers SONIC's
  // largest minimal commit (with the default margin) — the band between
  // the forced-tile and forced-sonic thresholds.
  const double su = flex::sonic_worst_commit_energy(cm_d, dev.cost());
  const double ck = flex::worst_checkpoint_energy(cm_c, dev.cost());
  img.burst_energy_j = 3e-7;
  ASSERT_GE(img.burst_energy_j, AdaptiveSpec{}.ckpt_margin * su);
  ASSERT_LT(img.burst_energy_j, AdaptiveSpec{}.ckpt_margin * ck);
  provision_adaptive(*policy, img);

  flex::IntermittentExecutor ex(*policy);
  const flex::RunStats st = ex.run(dev, cm_c, input);

  EXPECT_TRUE(st.completed());
  const auto* ap = as_adaptive(policy.get());
  EXPECT_EQ(ap->current_runtime(), "sonic");
  EXPECT_TRUE(ap->on_dense_model());
  // The executor was armed with the compressed image but the run
  // completed on the dense twin: the output_model hook must redirect.
  EXPECT_EQ(st.output, oracle_dense);
}

TEST(Adaptive, MicroBurstForcesTileBelowSonicsCommitGrain) {
  // A burst below even SONIC's largest minimal committable unit pins the
  // ladder to the tile floor: sub-layer cursors are the only strategy
  // whose commit grain still fits.
  Rng rng(44);
  const auto qm_c = mixed_model(rng);
  const auto qm_d = dense_model(rng);
  const auto input =
      quant::quantize_input(qm_c, random_tensor(qm_c.layers.front().in_shape, rng));
  const auto oracle_dense = continuous_oracle(qm_d, input);

  auto policy = make_adaptive_policy();
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm_c = ace::compile(qm_c, dev);
  const auto cm_d = ace::compile(qm_d, dev, /*co_resident=*/true);
  DeploymentImage img;
  img.compressed = &cm_c;
  img.dense = &cm_d;
  img.burst_energy_j = 1e-9;  // below one SONIC conv-pixel commit
  ASSERT_LT(img.burst_energy_j,
            AdaptiveSpec{}.ckpt_margin * flex::sonic_worst_commit_energy(cm_d, dev.cost()));
  provision_adaptive(*policy, img);

  flex::IntermittentExecutor ex(*policy);
  const flex::RunStats st = ex.run(dev, cm_c, input);

  EXPECT_TRUE(st.completed());
  const auto* ap = as_adaptive(policy.get());
  EXPECT_EQ(ap->current_runtime(), "tile");
  EXPECT_TRUE(ap->on_dense_model());
  EXPECT_EQ(st.output, oracle_dense);
}

TEST(Adaptive, MisforecastDemotesAceToFlexAndCompletes) {
  // A forecaster stuck on "rich" starts every fresh boot on ACE; under a
  // harvest that can never push a whole inference through one burst, the
  // no-progress guard must demote to FLEX, which then finishes. Use the
  // real MNIST deployment model: a burst covers only a fraction of it.
  Rng rng(0xb0a710ad + 0);
  const auto qm = models::make_deployed_qmodel(models::Task::kMnist, true, rng);
  std::vector<q15_t> input(qm.layers.front().in_size());
  for (auto& v : input) v = static_cast<q15_t>(rng.next_u64());

  auto fixed_flex_run = [&](dev::Device& dev, const ace::CompiledModel& cm,
                            const flex::RunOptions& opts) {
    const auto policy = flex::make_flex_policy();
    return flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
  };

  const auto run_supply = [&](flex::RuntimePolicy* policy, bool* completed,
                              std::vector<q15_t>* output, flex::RunOptions* opts_out) {
    auto src = power::make_harvest_source("const:w=1.2e-3");
    power::CapacitorConfig ccfg;
    ccfg.capacitance_f = 10e-6;
    power::CapacitorSupply supply(*src, ccfg);
    dev::Device dev;
    dev.attach_supply(&supply);
    const auto cm = ace::compile(qm, dev);
    flex::RunOptions opts;
    opts.flex_v_warn =
        power::flex_warn_voltage(ccfg, flex::worst_checkpoint_energy(cm, dev.cost()));
    if (opts_out != nullptr) *opts_out = opts;
    if (policy == nullptr) {
      const flex::RunStats st = fixed_flex_run(dev, cm, opts);
      *completed = st.completed();
      *output = st.output;
      return;
    }
    flex::IntermittentExecutor ex(*policy);
    const flex::RunStats st = ex.run(dev, cm, input, opts);
    *completed = st.completed();
    *output = st.output;
  };

  bool flex_ok = false;
  std::vector<q15_t> flex_out;
  run_supply(nullptr, &flex_ok, &flex_out, nullptr);
  ASSERT_TRUE(flex_ok) << "fixture: fixed FLEX must complete this scenario";

  auto policy =
      make_adaptive_policy(parse_adaptive_spec("adaptive:fc=const,w=9,rich=5e-3,demote=2"));
  bool ok = false;
  std::vector<q15_t> out;
  run_supply(policy.get(), &ok, &out, nullptr);
  EXPECT_TRUE(ok);
  const auto* ap = as_adaptive(policy.get());
  EXPECT_EQ(ap->current_runtime(), "flex") << "mis-forecast must demote off ACE";
  EXPECT_GE(ap->tier_switches(), 1);
  EXPECT_EQ(out, flex_out) << "adaptive completing on the flex tier must be bit-exact";
}

TEST(Adaptive, ObservedIncomeFeedsTheForecaster) {
  // Under an intermittent capacitor supply the recharge gaps are income
  // samples; the forecaster must have folded some in by completion.
  Rng rng(45);
  const auto qm_c = mixed_model(rng);
  const auto qm_d = dense_model(rng);
  const auto input =
      quant::quantize_input(qm_c, random_tensor(qm_c.layers.front().in_shape, rng));

  auto policy = make_adaptive_policy();
  auto src = power::make_harvest_source("square:hi=4e-3,lo=0.2e-3,period=0.005,duty=0.5");
  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = 2e-6;
  power::CapacitorSupply supply(*src, ccfg);
  dev::Device dev;
  dev.attach_supply(&supply);
  const auto cm_c = ace::compile(qm_c, dev);
  const auto cm_d = ace::compile(qm_d, dev, /*co_resident=*/true);
  DeploymentImage img;
  img.compressed = &cm_c;
  img.dense = &cm_d;
  img.burst_energy_j = supply.burst_energy();
  provision_adaptive(*policy, img);

  flex::RunOptions opts;
  opts.flex_v_warn =
      power::flex_warn_voltage(ccfg, flex::worst_checkpoint_energy(cm_c, dev.cost()));
  flex::IntermittentExecutor ex(*policy);
  const flex::RunStats st = ex.run(dev, cm_c, input, opts);

  EXPECT_TRUE(st.completed());
  const auto* ap = as_adaptive(policy.get());
  if (st.reboots > 0) {
    EXPECT_GT(ap->forecaster().samples(), 0)
        << "reboots happened but no income sample was recorded";
  }
}

// ------------------------------------------------------------ job queue

TEST(JobQueue, RunsTheAgendaAndScoresDeadlines) {
  Rng rng(46);
  const auto qm = mixed_model(rng);
  power::ContinuousPower supply;
  dev::Device dev;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);

  std::vector<std::vector<q15_t>> inputs;
  for (int j = 0; j < 3; ++j) {
    Rng in_rng(100 + static_cast<std::uint64_t>(j));
    std::vector<q15_t> in(cm.model.layers.front().in_size());
    for (auto& v : in) v = static_cast<q15_t>(in_rng.next_u64());
    inputs.push_back(std::move(in));
  }

  auto policy = flex::make_flex_policy();
  DeviceAgenda agenda;
  agenda.runtime = "flex";
  agenda.jobs = 3;
  agenda.period_s = 0.05;
  agenda.deadline_s = 0.04;
  JobQueue q(dev, *policy, cm, {}, agenda, &inputs);

  while (q.step()) {
  }
  ASSERT_TRUE(q.finished());
  const auto& recs = q.records();
  ASSERT_EQ(recs.size(), 3u);
  for (int j = 0; j < 3; ++j) {
    const auto& r = recs[static_cast<std::size_t>(j)];
    EXPECT_EQ(r.job, j);
    EXPECT_DOUBLE_EQ(r.release_s, 0.05 * j);
    EXPECT_GE(r.start_s, r.release_s);
    EXPECT_GT(r.finish_s, r.start_s);
    EXPECT_TRUE(r.outcome == flex::Outcome::kCompleted);
    EXPECT_DOUBLE_EQ(r.staleness_s, r.finish_s - r.release_s);
    // The tiny model completes in well under 40 ms of device time on
    // bench power, so every job meets its deadline...
    EXPECT_TRUE(r.met_deadline) << "job " << j;
    EXPECT_EQ(r.runtime, "flex");
    // ...and starts exactly at its release (the device idles in between).
    EXPECT_DOUBLE_EQ(r.start_s, r.release_s);
  }
}

TEST(JobQueue, RejectsMalformedAgendas) {
  Rng rng(47);
  const auto qm = mixed_model(rng);
  power::ContinuousPower supply;
  dev::Device dev;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  std::vector<std::vector<q15_t>> inputs(1);
  inputs[0].resize(cm.model.layers.front().in_size(), 0);
  auto policy = flex::make_flex_policy();

  DeviceAgenda zero_period;
  zero_period.jobs = 1;
  zero_period.period_s = 0.0;
  EXPECT_THROW(JobQueue(dev, *policy, cm, {}, zero_period, &inputs), Error);

  DeviceAgenda wrong_inputs;
  wrong_inputs.jobs = 2;  // but only one input provided
  EXPECT_THROW(JobQueue(dev, *policy, cm, {}, wrong_inputs, &inputs), Error);
}

// ----------------------------------------------------- fleet config file

TEST(FleetConfig, ParsesHeterogeneousGroups) {
  std::istringstream is(R"(# duty-cycled mixed population
fleet source=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5 spread=0.5 seed=0x123
group name=rich count=4 task=mnist runtime=adaptive cap=20e-6 jobs=2 period=0.3 deadline=1.5 sched=adaptive:rich=2e-3
group name=lean count=3 task=har runtime=flex cap=5e-6 jobs=1 period=0.4 max_off=10 reboots=5000 fram=300000
)");
  const sim::FleetConfig cfg = sim::parse_fleet_config(is);
  EXPECT_EQ(cfg.seed, 0x123u);
  EXPECT_DOUBLE_EQ(cfg.offset_spread_s, 0.5);
  ASSERT_EQ(cfg.groups.size(), 2u);
  EXPECT_EQ(cfg.groups[0].name, "rich");
  EXPECT_EQ(cfg.groups[0].count, 4);
  EXPECT_EQ(cfg.groups[0].task, models::Task::kMnist);
  EXPECT_EQ(cfg.groups[0].agenda.runtime, "adaptive");
  EXPECT_EQ(cfg.groups[0].agenda.jobs, 2);
  EXPECT_DOUBLE_EQ(cfg.groups[0].agenda.period_s, 0.3);
  EXPECT_DOUBLE_EQ(cfg.groups[0].agenda.deadline_s, 1.5);
  EXPECT_EQ(cfg.groups[0].sched_spec, "adaptive:rich=2e-3");
  EXPECT_EQ(cfg.groups[1].task, models::Task::kHar);
  EXPECT_DOUBLE_EQ(cfg.groups[1].capacitance_f, 5e-6);
  EXPECT_EQ(cfg.groups[1].max_reboots, 5000);
  EXPECT_EQ(cfg.groups[1].fram_words, 300000u);
  EXPECT_EQ(cfg.total_devices(), 7);
}

TEST(FleetConfig, RejectsMalformedEntries) {
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return sim::parse_fleet_config(is);
  };
  EXPECT_THROW(parse(""), Error);  // no groups
  EXPECT_THROW(parse("group count=2 cap=-10e-6\n"), Error);       // negative capacitance
  EXPECT_THROW(parse("group count=2 cap=inf\n"), Error);          // infinite capacitance
  EXPECT_THROW(parse("group count=2 cap=nan\n"), Error);
  EXPECT_THROW(parse("group count=2 period=0\n"), Error);         // zero-period agenda
  EXPECT_THROW(parse("group count=2 runtime=warp\n"), Error);     // unknown runtime key
  EXPECT_THROW(parse("group count=2 task=sudoku\n"), Error);      // unknown task
  EXPECT_THROW(parse("group count=0\n"), Error);                  // empty group
  EXPECT_THROW(parse("group name=a count=0\ngroup name=b count=2\n"), Error);  // count=0 anywhere
  // Duplicate group names would make per_device rows and baseline
  // comparisons ambiguous; explicit and default-assigned names collide too.
  EXPECT_THROW(parse("group name=twin count=1\ngroup name=twin count=2\n"), Error);
  EXPECT_THROW(parse("group name=group1 count=1\ngroup count=1\n"), Error);
  EXPECT_THROW(parse("group count=2 bogus=1\n"), Error);          // unknown key
  // fleet-line detail must be one of the two modes.
  EXPECT_THROW(parse("fleet detail=everything\ngroup count=1\n"), Error);
  EXPECT_THROW(parse("group count=2 cap\n"), Error);              // not key=value
  EXPECT_THROW(parse("squadron count=2\n"), Error);               // unknown directive
  EXPECT_THROW(parse("group count=2 count=3\n"), Error);          // duplicate key
  EXPECT_THROW(parse("group count=2 jobs=2 period=x\n"), Error);  // bad number
  // Real-valued keys must be finite, and the error names the key.
  const struct {
    const char* text;
    const char* key;
  } non_finite[] = {
      {"fleet spread=inf\ngroup count=1\n", "spread"},
      {"fleet spread=nan\ngroup count=1\n", "spread"},
      {"fleet spread=-inf\ngroup count=1\n", "spread"},
      {"group count=1 max_off=inf\n", "max_off"},
      {"group count=1 period=inf\n", "period"},
      {"group count=1 period=nan\n", "period"},
      {"group count=1 cap=-inf\n", "cap"},
      {"group count=1 deadline=nan\n", "deadline"},
      {"group count=1 deadline=-inf\n", "deadline"},
  };
  for (const auto& row : non_finite) {
    try {
      parse(row.text);
      ADD_FAILURE() << row.text << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("bad number for ") + row.key),
                std::string::npos)
          << row.text << ": " << e.what();
    }
  }
  // A repeated key is rejected wherever it appears, and the error names it.
  const struct {
    const char* text;
    const char* error;
  } named[] = {
      {"group count=2 count=3\n", "duplicate key \"count\""},
      {"fleet seed=1 seed=2\ngroup count=1\n", "duplicate key \"seed\""},
      {"group count=1 sched=adaptive:rich=1e-3 sched=adaptive\n", "duplicate key \"sched\""},
      {"group count=1 bogus=1\n", "unknown key \"bogus\""},
      // Below the 1 nF capacitor floor.
      {"group count=1 cap=1e-30\n", "cap must be in [1e-09, inf)"},
      // Every count is in range, but the population overflows an int.
      {"group name=a count=1000000000\ngroup name=b count=1000000000\n"
       "group name=c count=1000000000\n",
       "population of 3000000000 devices"},
  };
  // Each is a UserError: one line, no source location.
  for (const auto& row : named) {
    try {
      parse(row.text);
      ADD_FAILURE() << row.text << " accepted";
    } catch (const UserError& e) {
      EXPECT_EQ(std::string(e.what()).find("check failed"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << row.text << ": " << e.what();
    }
  }
  // deadline=inf is the default (no deadline) and round-trips through the
  // config writer.
  EXPECT_NO_THROW(parse("group count=1 deadline=inf\n"));
  // Runs of spaces between tokens (fleet_hetero.cfg aligns its columns),
  // trailing comments, a 0x seed and a sched= value holding both ',' and
  // '=' all parse.
  const sim::FleetConfig ok = parse(
      "fleet seed=0x1f  spread=0.5  # hex seed\n"
      "group name=a count=1  runtime=adaptive cap=10e-6  deadline=inf "
      "sched=adaptive:sel=deadline,fc=periodic  # aligned\n");
  EXPECT_EQ(ok.seed, 0x1fu);
  EXPECT_DOUBLE_EQ(ok.offset_spread_s, 0.5);
  ASSERT_EQ(ok.groups.size(), 1u);
  EXPECT_DOUBLE_EQ(ok.groups[0].capacitance_f, 10e-6);
  EXPECT_TRUE(std::isinf(ok.groups[0].agenda.deadline_s));
  EXPECT_EQ(ok.groups[0].sched_spec, "adaptive:sel=deadline,fc=periodic");
  // sched= on a fixed runtime is a config error, as is a bad spec.
  EXPECT_THROW(parse("group count=1 runtime=flex sched=adaptive:rich=1\n"), Error);
  EXPECT_THROW(parse("group count=1 runtime=adaptive sched=adaptive:nope=1\n"), Error);
  // fleet line: at most once.
  EXPECT_THROW(parse("fleet seed=1\nfleet seed=2\ngroup count=1\n"), Error);
  // Integer keys are range-checked before the cast (no UB, no silent
  // wraparound) and the seed must parse completely.
  EXPECT_THROW(parse("group count=1 fram=-1\n"), Error);
  EXPECT_THROW(parse("group count=1.5\n"), Error);
  EXPECT_THROW(parse("group count=1e12\n"), Error);
  EXPECT_THROW(parse("fleet seed=xyz\ngroup count=1\n"), Error);
  EXPECT_THROW(parse("fleet seed=12oops\ngroup count=1\n"), Error);
  // Tile runtime specs: zero/negative/fractional tile sizes and unknown
  // spec keys are config errors; so is a spec suffix on a runtime that
  // takes none. The watchdog knob must be non-negative.
  EXPECT_THROW(parse("group count=1 runtime=tile:t=0\n"), Error);
  EXPECT_THROW(parse("group count=1 runtime=tile:t=-4\n"), Error);
  EXPECT_THROW(parse("group count=1 runtime=tile:t=1.5\n"), Error);
  EXPECT_THROW(parse("group count=1 runtime=tile:bogus=1\n"), Error);
  EXPECT_THROW(parse("group count=1 runtime=flex:t=2\n"), Error);
  EXPECT_THROW(parse("group count=1 max_futile=-1\n"), Error);
}

// --------------------------------------------------- FLEET.json v6 schema

TEST(FleetJson, V6SchemaGolden) {
  sim::FleetConfig cfg;
  cfg.source = "square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5";
  cfg.offset_spread_s = 0.02;
  sim::FleetGroup g;
  g.name = "golden";
  g.count = 2;
  g.agenda.runtime = "flex";
  g.agenda.jobs = 2;
  g.agenda.period_s = 0.3;
  g.agenda.deadline_s = 0.25;
  cfg.groups.push_back(g);
  sim::FleetRunOptions ropts;
  ropts.baseline_runtimes = {"ace"};
  const sim::FleetReport r = sim::run_fleet(cfg, ropts);

  std::ostringstream os;
  sim::write_fleet_json(os, r);
  const std::string j = os.str();
  // Schema marker and every carried field family must be present (v3
  // added the admission block, per-device jobs_skipped, and per-job
  // energy_reclaimed_j; v4 added the per-group max_futile echo and the
  // "livelock" verdict; v5 added the detail mode, sketch-based percentile
  // provenance, and the aggregate livelock/total_steps counters; v6 adds
  // the lifecycle "metrics" block).
  for (const char* needle :
       {"\"schema\": \"ehdnn-fleet-v6\"", "\"detail\": \"full\"",
        "\"metrics\":", "\"counters\":", "\"gauges\":", "\"event.boot\":",
        "\"event.brown_out\":", "\"event.recovery\":", "\"event.commit\":",
        "\"event.checkpoint_begin\":", "\"event.job_complete\":",
        "\"trace.dropped_events\":", "\"fleet.max_device_reboots\":",
        "\"percentiles\": \"qsketch\"", "\"sketch_rel_err\":", "\"total_steps\":",
        "\"max_futile\":", "\"groups\":", "\"aggregate\":",
        "\"baselines\":",
        "\"per_device\":", "\"total_jobs\":", "\"in_deadline\":", "\"deadline_rate\":",
        "\"latency_p50_s\":", "\"latency_p99_s\":", "\"staleness_p50_s\":",
        "\"staleness_p99_s\":", "\"tier_switches\":", "\"jobs\": [", "\"release_s\":",
        "\"staleness_s\":", "\"met_deadline\":", "\"outcome\":", "\"period_s\":",
        "\"deadline_s\":", "\"jobs_in_deadline\":", "\"runtime\": \"ace\"",
        "\"admission\":", "\"skipped_infeasible\":", "\"energy_reclaimed_j\":",
        "\"jobs_skipped\":", "\"admission_baseline\":"}) {
    EXPECT_NE(j.find(needle), std::string::npos) << "missing " << needle;
  }
  // Older schema ids are gone.
  EXPECT_EQ(j.find("ehdnn-fleet-v1"), std::string::npos);
  EXPECT_EQ(j.find("ehdnn-fleet-v2"), std::string::npos);
  EXPECT_EQ(j.find("ehdnn-fleet-v3"), std::string::npos);
  EXPECT_EQ(j.find("ehdnn-fleet-v4"), std::string::npos);
  EXPECT_EQ(j.find("ehdnn-fleet-v5"), std::string::npos);
}

}  // namespace
}  // namespace ehdnn::sched
