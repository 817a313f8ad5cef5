// Crash-consistency fuzzing at scale (the property SONIC/TAILS and
// Stateful-CNN establish only anecdotally): for ANY failure schedule, an
// intermittent runtime's output must be bit-identical to its own
// continuous-power output. The FailureScheduleSupply replays >= 1500
// seeded schedules across SONIC, TAILS, FLEX, and TILE, aiming brown-outs
// at adversarial instants — mid-block, inside conv2d and conv1d output
// rows, tearing FRAM progress commits, during FLEX checkpoint writes,
// inside tile cursor commits (between the double-buffer halves and on the
// epoch flip), and right on commit boundaries — and every run is checked
// against the continuous oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "core/flex/runtime.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "obs/events.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/failure_schedule.h"
#include "quant/quantize.h"
#include "sched/adaptive.h"
#include "sim/scenario.h"
#include "tiny_models.h"
#include "util/rng.h"

namespace ehdnn::flex {
namespace {

using fx::q15_t;
using testutil::dense_model;
using testutil::mixed_model;
using testutil::random_tensor;

// A conv1d front end (the HAR shape, shrunk): the only model whose conv
// layer is a Conv1D, so brown-outs land inside conv1d output rows.
quant::QuantModel conv1d_model(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv1D>(2, 8, 5)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Flatten>();
  m.add<nn::Dense>(8 * 36, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({2, 40}, rng));
  return quant::quantize(m, calib, {2, 40});
}

enum FuzzModel { kDense, kBcm, kConv1d };

struct FuzzCase {
  const char* runtime;
  FuzzModel model;      // mixed (BCM) model, its dense twin, or conv1d
  int schedules;        // seeded schedules replayed
  std::uint64_t seed0;  // first seed; seeds are seed0 .. seed0+schedules-1
  // Pinned StatsDigest over every schedule of the case (see below). The
  // run()/step() comparison checks the two paths against each other; this
  // pins both against the recorded values, so a counter or event that
  // moves when a brown-out is delivered fails here.
  std::uint64_t stats_digest;
  double flex_v_warn = 2.45;  // default; varied to hit eager/late monitors
  // Adaptive scheduler spec (sched::parse_adaptive_spec); null for the
  // table default. The rich-stuck const forecaster with demote=1 makes
  // nearly every schedule start on ACE and demote to FLEX at a failure
  // boot — so brown-outs land exactly on runtime-switch boots.
  const char* sched_spec = nullptr;
  // Opt the supply into the device's prepaid-headroom window: draws
  // buffer against a per-cycle budget and brown-outs land on the per-op
  // draws at settlement boundaries (torn settlement at the headroom
  // boundary) instead of mid-window.
  bool prepaid = false;
};

// >= 1500 schedules total, spread so every runtime sees every commit
// protocol it implements (SONIC and TILE are dense-only; TILE runs at
// three tile sizes so schedules tear single-MAC commits, the default
// grain, and the in-between — brown-outs land inside a tile, between the
// double-buffered cursor record's halves, and on the epoch-publish word),
// FLEX additionally runs
// with an eager (always-warning) and a late (never-warning) monitor, and
// the adaptive scheduler is forced through ACE->FLEX switch boots — in
// BOTH selection modes: the income-ladder cases pin tier choice via a
// rich-stuck const forecast, and the sel=deadline cases reach the same
// ACE-first choice through the completion model (unbounded burst makes
// the cheapest-energy tier win), so brown-outs land on deadline-mode
// decision boots and on the demotion switches they trigger. The conv1d
// model is the only one with a Conv1D layer, so its FLEX, TAILS, SONIC and
// TILE cases (per-op and prepaid) are what put brown-outs inside conv1d
// output rows.
constexpr FuzzCase kCases[] = {
    {"sonic", kDense, 250, 0x50000, 0x58999714ad376c88ull, 2.45},
    {"tails", kDense, 150, 0x51000, 0x2dc35b22f1a4dc5bull, 2.45},
    {"tails", kBcm, 150, 0x52000, 0xead4f9b8fbe725a9ull, 2.45},
    {"flex", kBcm, 250, 0x53000, 0xe81ae045338f59e8ull, 2.45},
    {"flex", kDense, 100, 0x54000, 0x35d904e178099633ull, 2.45},
    // eager: warns every cycle
    {"flex", kBcm, 60, 0x55000, 0x8908528d3eadcd49ull, 3.5},
    // late: failures arrive unwarned
    {"flex", kBcm, 40, 0x56000, 0xa6e388df5f8a8d71ull, 2.2001},
    {"tile", kDense, 80, 0x5d000, 0x54f44ef2ff613e9aull, 2.45},
    {"tile:t=1", kDense, 40, 0x5e000, 0x95b905cadc3d7ce4ull, 2.45},  // every MAC is a commit
    {"tile:t=4", kDense, 60, 0x5f000, 0x140300a7c3598c1aull, 2.45},
    {"adaptive", kBcm, 120, 0x57000, 0x9fcadd90aee0078cull, 2.45,
     "adaptive:fc=const,w=9,rich=5e-3,demote=1"},
    {"adaptive", kDense, 80, 0x58000, 0x9f9146454bc0a88aull, 2.45,
     "adaptive:fc=const,w=9,rich=5e-3,demote=1"},
    {"adaptive", kBcm, 70, 0x5c000, 0x4a9d955068fb0a7cull, 2.45,
     "adaptive:sel=deadline,fc=const,w=9,demote=1"},
    {"adaptive", kDense, 50, 0x5b000, 0x59464dcaf2096848ull, 2.45,
     "adaptive:sel=deadline,fc=periodic,demote=1"},
    // Prepaid-headroom window schedules: per-cycle budgets make the
    // device buffer draws and settle them in batches; failures fire on
    // the over-budget draw right after a settlement — the torn-settlement
    // boundary the prepaid contract must keep bit-exact.
    {"flex", kBcm, 100, 0x60000, 0x1dcb2ad262bb3b55ull, 2.45, nullptr, true},
    {"sonic", kDense, 80, 0x61000, 0xc1c3a898340f521aull, 2.45, nullptr, true},
    {"tails", kBcm, 60, 0x62000, 0xf46f1a42d6ede1adull, 2.45, nullptr, true},
    {"tile", kDense, 60, 0x63000, 0x94b3fbf4402a14a9ull, 2.45, nullptr, true},
    // Conv1D rows: per-op schedules tear the window loop word by word,
    // prepaid ones land on the over-budget draw after a settlement, both
    // in the middle of an output row.
    {"flex", kConv1d, 60, 0x64000, 0x0659b80f6bf29b14ull, 2.45},
    {"tails", kConv1d, 60, 0x65000, 0xb92f8cd6196aa754ull, 2.45},
    {"flex", kConv1d, 50, 0x66000, 0x0411783f90c1fba6ull, 2.45, nullptr, true},
    {"tails", kConv1d, 50, 0x67000, 0x5b10fe4eb91089c0ull, 2.45, nullptr, true},
    // The scalar CPU runtimes' conv1d MAC loops: per-op schedules run
    // every MAC through the per-op fallback of the device's charge runs,
    // prepaid ones charge whole runs into the window and tear at its
    // budget.
    {"sonic", kConv1d, 50, 0x68000, 0xb03c49283732ed3full, 2.45},
    {"tile", kConv1d, 50, 0x69000, 0x3ef80680ebed13adull, 2.45},
    {"sonic", kConv1d, 40, 0x6a000, 0xc048caf0f7313ef2ull, 2.45, nullptr, true},
    {"tile", kConv1d, 40, 0x6b000, 0x2302d7cbca733f3dull, 2.45, nullptr, true},
};

// FNV-1a over a case's per-schedule outcomes, in schedule order: each
// run()'s reboots, units_executed, progress_commits, checkpoints and the
// bit pattern of energy_j, then the event counts by obs::EventKind of the
// run() path and of the start()/step() path.
class StatsDigest {
 public:
  void add_stats(const RunStats& st) {
    fold(static_cast<std::uint64_t>(st.reboots));
    fold(static_cast<std::uint64_t>(st.units_executed));
    fold(static_cast<std::uint64_t>(st.progress_commits));
    fold(static_cast<std::uint64_t>(st.checkpoints));
    fold(std::bit_cast<std::uint64_t>(st.energy_j));
  }
  void add_events(const obs::EventTrace& trace) {
    for (int k = 0; k < obs::kKindCount; ++k) {
      fold(static_cast<std::uint64_t>(trace.count(static_cast<obs::EventKind>(k))));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  void fold(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Builds the case's runtime/policy honoring an adaptive spec override.
std::unique_ptr<RuntimePolicy> make_case_policy(const FuzzCase& fc) {
  if (fc.sched_spec != nullptr) {
    return sched::make_adaptive_policy(sched::parse_adaptive_spec(fc.sched_spec));
  }
  return sim::make_policy(fc.runtime);
}

TEST(FuzzIntermittent, CoversAtLeastFifteenHundredSchedules) {
  int total = 0;
  for (const auto& c : kCases) total += c.schedules;
  EXPECT_GE(total, 1500) << "acceptance: >= 1500 seeded schedules";
}

class CrashConsistency : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CrashConsistency, BitExactUnderSeededSchedules) {
  const FuzzCase fc = GetParam();
  Rng model_rng(1234);
  const auto qm = fc.model == kBcm      ? mixed_model(model_rng)
                  : fc.model == kConv1d ? conv1d_model(model_rng)
                                        : dense_model(model_rng);
  const auto input = quant::quantize_input(
      qm, random_tensor(qm.layers.front().in_shape, model_rng));
  const auto run_policy = make_case_policy(fc);

  RunOptions opts;
  opts.flex_v_warn = fc.flex_v_warn;

  std::vector<q15_t> oracle;
  {
    dev::Device dev;
    power::ContinuousPower supply;
    dev.attach_supply(&supply);
    const auto cm = ace::compile(qm, dev);
    const RunStats cont = IntermittentExecutor(*run_policy).run(dev, cm, input, opts);
    ASSERT_TRUE(cont.completed());
    ASSERT_EQ(cont.reboots, 0);
    oracle = cont.output;
  }

  // Every schedule runs twice: once through the one-call run() and once
  // through an explicit start()/step() drain on a second policy instance
  // — the incremental path the fleet harness uses, with the run
  // suspended between every slice. Both must match the continuous oracle
  // bit for bit and each other on every stat.
  auto policy = make_case_policy(fc);

  // Every schedule also runs under a lifecycle EventTrace, and the trace
  // must agree with the stats the runtime reports: one recovery per
  // reboot, exactly one cold boot on top of the recoveries, one brown-out
  // per reboot (the run completes, so no trailing unrecovered brown-out),
  // and simulated-time stamps that never run backwards. The ring is sized
  // so no case drops (the count invariants hold regardless; the
  // monotonicity walk needs the full event stream).
  obs::EventTrace trace;
  trace.set_capacity(std::size_t{1} << 16);
  auto check_trace_invariants = [&](long reboots, std::uint64_t seed,
                                    const char* path) {
    ASSERT_EQ(trace.count(obs::EventKind::kRecovery), reboots)
        << fc.runtime << " " << path << " seed " << seed;
    ASSERT_EQ(trace.count(obs::EventKind::kBoot),
              trace.count(obs::EventKind::kRecovery) + 1)
        << fc.runtime << " " << path << " seed " << seed;
    ASSERT_EQ(trace.count(obs::EventKind::kBrownOut), reboots)
        << fc.runtime << " " << path << " seed " << seed;
    ASSERT_EQ(trace.dropped(), 0)
        << fc.runtime << " " << path << " seed " << seed
        << ": ring too small for the monotonicity walk";
    double prev = -1.0;
    for (const obs::Event& ev : trace.snapshot()) {
      ASSERT_GE(ev.t_s, prev)
          << fc.runtime << " " << path << " seed " << seed << ": "
          << obs::event_name(ev.kind) << " stamped before its predecessor";
      prev = ev.t_s;
    }
  };
  opts.trace = &trace;

  long total_failures = 0;
  StatsDigest digest;
  for (int i = 0; i < fc.schedules; ++i) {
    const std::uint64_t seed = fc.seed0 + static_cast<std::uint64_t>(i);
    power::FailureScheduleSupply::Config scfg;
    scfg.prepaid = fc.prepaid;
    dev::Device dev;
    power::FailureScheduleSupply supply(seed, scfg);
    dev.attach_supply(&supply);
    const auto cm = ace::compile(qm, dev);
    trace.clear();
    const RunStats st = IntermittentExecutor(*run_policy).run(dev, cm, input, opts);

    ASSERT_TRUE(st.completed()) << fc.runtime << " seed " << seed;
    ASSERT_EQ(st.outcome, Outcome::kCompleted) << fc.runtime << " seed " << seed;
    ASSERT_EQ(st.output, oracle)
        << fc.runtime << " diverged from continuous power under schedule seed " << seed
        << " (" << supply.failures() << " injected failures)";
    EXPECT_EQ(st.reboots, supply.failures()) << fc.runtime << " seed " << seed;
    total_failures += supply.failures();
    check_trace_invariants(st.reboots, seed, "run");
    digest.add_stats(st);
    digest.add_events(trace);

    dev::Device dev2;
    power::FailureScheduleSupply supply2(seed, scfg);
    dev2.attach_supply(&supply2);
    const auto cm2 = ace::compile(qm, dev2);
    trace.clear();
    IntermittentExecutor ex(*policy);
    ex.start(dev2, cm2, input, opts);
    while (ex.step()) {
    }
    const RunStats& se = ex.stats();
    ASSERT_EQ(se.output, oracle) << fc.runtime << " executor path, seed " << seed;
    ASSERT_DOUBLE_EQ(se.on_seconds, st.on_seconds) << fc.runtime << " seed " << seed;
    ASSERT_DOUBLE_EQ(se.energy_j, st.energy_j) << fc.runtime << " seed " << seed;
    ASSERT_EQ(se.reboots, st.reboots) << fc.runtime << " seed " << seed;
    ASSERT_EQ(se.checkpoints, st.checkpoints) << fc.runtime << " seed " << seed;
    ASSERT_EQ(se.progress_commits, st.progress_commits) << fc.runtime << " seed " << seed;
    ASSERT_EQ(se.units_executed, st.units_executed) << fc.runtime << " seed " << seed;
    check_trace_invariants(se.reboots, seed, "executor");
    digest.add_events(trace);
  }
  std::printf("%s seed0 0x%llx: stats digest 0x%016llx\n", fc.runtime,
              static_cast<unsigned long long>(fc.seed0),
              static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(digest.value(), fc.stats_digest)
      << fc.runtime << ": a per-schedule stat or event count moved";

  // The schedules must actually bite: on average multiple brown-outs per
  // run, or the fuzzer is testing nothing. (FLEX averages fewer than the
  // commit-heavy baselines because event-targeted triggers have far fewer
  // commit events to aim at — that sparseness is FLEX's selling point.
  // Adaptive runs average fewer still: their ACE boots announce no commit
  // boundaries at all, so event triggers idle until the demotion lands.)
  // (Prepaid cases average fewer still: a cycle whose budget swallows
  // every draw defers its armed failure until an over-budget op shows up.)
  const long bite = fc.sched_spec != nullptr ? 2L : (fc.prepaid ? 1L : 3L);
  EXPECT_GT(total_failures, bite * fc.schedules)
      << fc.runtime << ": schedules injected too few failures";

  // Adaptive cases exist to aim brown-outs at runtime-switch boots: the
  // rich-stuck forecast must actually have produced switches, or the case
  // degenerated into plain FLEX.
  if (fc.sched_spec != nullptr) {
    const auto* ap = sched::as_adaptive(policy.get());
    ASSERT_NE(ap, nullptr);
    EXPECT_GT(ap->tier_switches(), fc.schedules / 4)
        << "adaptive case: too few runtime-switch boots exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, CrashConsistency, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           const FuzzCase& c = info.param;
                           std::string name = c.runtime;
                           // gtest names must be identifiers: "tile:t=4"
                           // becomes "tile_t_4".
                           for (char& ch : name) {
                             if (ch == ':' || ch == '=') ch = '_';
                           }
                           name += c.model == kBcm      ? "_bcm"
                                   : c.model == kConv1d ? "_conv1d"
                                                        : "_dense";
                           if (c.prepaid) name += "_pp";
                           name += "_" + std::to_string(c.schedules);
                           name += "_w" + std::to_string(static_cast<int>(
                                              c.flex_v_warn * 1000.0));
                           return name;
                         });

TEST(FuzzIntermittent, AdaptiveVariantSwitchesStayBitExact) {
  // The provisioned scheduler ships BOTH model variants co-resident and
  // may finish a job on either; the contract is bit-exactness against the
  // COMPLETING variant's continuous-power output, for any failure
  // schedule. The rich-stuck forecast with demote=1 drives ace -> flex at
  // the first fruitless boot and flex -> sonic (the dense twin!) at any
  // zero-progress cycle, so schedules hit both strategy- and
  // variant-switch boots — including brown-outs landing mid-switch.
  Rng model_rng(1234);
  const auto qm_c = mixed_model(model_rng);
  const auto qm_d = dense_model(model_rng);
  const auto input = quant::quantize_input(
      qm_c, random_tensor(qm_c.layers.front().in_shape, model_rng));

  // Per-variant continuous oracles (any runtime: bit-exact per model).
  std::vector<q15_t> oracle[2];  // [dense]
  for (const bool dense : {false, true}) {
    dev::Device dev;
    power::ContinuousPower supply;
    dev.attach_supply(&supply);
    const auto cm = ace::compile(dense ? qm_d : qm_c, dev);
    const auto policy = make_flex_policy();
    const RunStats st = IntermittentExecutor(*policy).run(dev, cm, input);
    ASSERT_TRUE(st.completed());
    oracle[dense] = st.output;
  }

  auto policy = sched::make_adaptive_policy(
      sched::parse_adaptive_spec("adaptive:fc=const,w=9,rich=5e-3,demote=1"));
  auto* ap = dynamic_cast<sched::AdaptivePolicy*>(policy.get());
  ASSERT_NE(ap, nullptr);

  constexpr int kSchedules = 150;
  int dense_completions = 0;
  for (int i = 0; i < kSchedules; ++i) {
    const std::uint64_t seed = 0x59000 + static_cast<std::uint64_t>(i);
    dev::Device dev;
    power::FailureScheduleSupply supply(seed);
    dev.attach_supply(&supply);
    const auto cm_c = ace::compile(qm_c, dev);
    const auto cm_d = ace::compile(qm_d, dev, /*co_resident=*/true);
    sched::DeploymentImage img;
    img.compressed = &cm_c;
    img.dense = &cm_d;
    ap->provision(img);

    IntermittentExecutor ex(*policy);
    ex.start(dev, cm_c, input);
    while (ex.step()) {
    }
    const RunStats& st = ex.stats();
    ASSERT_TRUE(st.completed()) << "adaptive seed " << seed;
    const bool dense = ap->on_dense_model();
    dense_completions += dense;
    ASSERT_EQ(st.output, oracle[dense])
        << "adaptive diverged from the " << (dense ? "dense" : "compressed")
        << " continuous oracle under schedule seed " << seed << " ("
        << supply.failures() << " injected failures, tier " << ap->current_runtime() << ")";
    EXPECT_EQ(st.reboots, supply.failures()) << "adaptive seed " << seed;
  }

  // The case must actually exercise variant switching: some schedules
  // have to end on the dense twin (sonic demotions), most on compressed.
  EXPECT_GT(dense_completions, 0) << "no schedule ever demoted to the dense twin";
  EXPECT_LT(dense_completions, kSchedules) << "every schedule demoted — forecast broken?";
  EXPECT_GT(ap->tier_switches(), kSchedules / 2);
}

TEST(FuzzIntermittent, ScheduleSupplyIsDeterministic) {
  // Same seed, same schedule: identical failure counts and timing.
  Rng rng(99);
  const auto qm = mixed_model(rng);
  const auto input =
      quant::quantize_input(qm, random_tensor(qm.layers.front().in_shape, rng));
  const auto policy = make_flex_policy();

  auto run_once = [&](std::uint64_t seed) {
    dev::Device dev;
    power::FailureScheduleSupply supply(seed);
    dev.attach_supply(&supply);
    const auto cm = ace::compile(qm, dev);
    const RunStats st = IntermittentExecutor(*policy).run(dev, cm, input);
    return std::pair<long, double>(supply.failures(), st.on_seconds);
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  const auto c = run_once(8);
  EXPECT_TRUE(a.first != c.first || a.second != c.second);
}

TEST(FuzzIntermittent, StarvedScenarioSurfacesAsOutcome) {
  // A harvester that never refills (constant 0 W) starves the capacitor
  // after the first brown-out; the runtime reports kStarved, distinct
  // from completion and from the reboot-limit DNF.
  Rng rng(100);
  const auto qm = mixed_model(rng);
  const auto input =
      quant::quantize_input(qm, random_tensor(qm.layers.front().in_shape, rng));
  const auto policy = make_flex_policy();

  dev::Device dev;
  power::ConstantSource dead(0.0);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1.0e-6;  // one small burst, then nothing
  cfg.max_off_s = 0.05;
  power::CapacitorSupply supply(dead, cfg);
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  const RunStats st = IntermittentExecutor(*policy).run(dev, cm, input);

  EXPECT_FALSE(st.completed());
  EXPECT_EQ(st.outcome, Outcome::kStarved);
  EXPECT_TRUE(supply.starved());
  EXPECT_GT(st.off_seconds, 0.0);
}

}  // namespace
}  // namespace ehdnn::flex
