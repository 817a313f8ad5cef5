// Pins the exact ordered sequence of modeled charges an inference makes.
//
// A recording supply sits between the device and the real supply and
// folds the bit patterns of every settled draw (joules, dt), in order,
// into one FNV-1a hash, followed by the final supply voltage, supply
// clock, failure count and the device's trace totals. Each case pins one
// hash. Outputs, totals and stats tests would all still pass if two
// charges swapped places or a kernel merged two draws into one; this test
// fails on any of that, so a kernel rewrite that claims "same charges in
// the same order" has to prove it here.
//
// Cases: the deployed MNIST model (conv2d) and HAR model (conv1d) under
// FLEX, once on a 10 uF capacitor with a square harvest (prepaid windows
// on, brown-outs landing inside conv output rows) and once on continuous
// power; the dense MNIST model under the tile runtime on the 80 nF
// micro-capacitor fleet's harvest, thousands of reboots most of which
// never touch SRAM; and the scalar CPU runtimes' MAC loops, which charge
// through the device's charge runs: SONIC on the dense MNIST (conv2d +
// dense) and HAR (conv1d) models and TILE on both under continuous power,
// where a run settles its draws through consume_batch(), and SONIC on the
// 10 uF square harvest, where runs buffer into prepaid windows and
// brown-outs land inside a MAC loop. SONIC on that harvest and TILE on
// the 80 nF one also run HAR, so brown-outs land inside the scalar
// runtimes' conv1d pixels. On the capacitor cases a window's
// runs reach the capacitor as run entries and settle in closed form, so
// these hashes pin that settlement to the per-draw one.
//
// Charge runs settle a run's draws with an infallible supply through one
// consume_batch() call; a supply that is not infallible makes every run
// stop short, so each repetition draws through its per-op fallback, one
// consume() per op. ChargeRuns.EveryRuntimeMatchesPerOpSettlement holds
// the two to bit-identity for every runtime that charges loops as runs.
//
// Every case also runs under a second scramble seed and must reproduce
// the hash, the output and every RunStats field. That is the
// crash-consistency contract seen end to end: what SRAM holds after a
// reboot is garbage no runtime may depend on, so which garbage it is
// cannot change a charge.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "models/zoo.h"
#include "obs/events.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/harvest.h"
#include "quant/quantize.h"
#include "util/rng.h"

namespace ehdnn {
namespace {

class ChargeRecorder : public dev::PowerSupply {
 public:
  explicit ChargeRecorder(dev::PowerSupply& inner) : inner_(inner) {}

  bool consume(double joules, double dt) override {
    fold_event(joules, dt);
    const bool ok = inner_.consume(joules, dt);
    failures_ += ok ? 0 : 1;
    return ok;
  }
  // The batch goes to the inner supply whole, so its own run settlement
  // (the capacitor's closed form) is what the hash pins; the recorder
  // folds the draws it settled, a run's expanded in order.
  std::size_t consume_batch(const dev::SpendBatch& b) override {
    const std::size_t done = inner_.consume_batch(b);
    const std::size_t n = b.size();
    // A failing draw is drained too (the capacitor empties into it).
    const std::size_t drained = std::min(n, done + 1);
    std::size_t folded = 0;
    dev::for_each_draw(b, [&](const dev::SpendEvent& e) {
      if (folded == drained) return false;
      fold_event(e.joules, e.dt);
      ++folded;
      return true;
    });
    failures_ += done == n ? 0 : 1;
    return done;
  }
  bool prepay_safe() const override { return inner_.prepay_safe(); }
  bool infallible() const override { return inner_.infallible(); }
  double prepaid_budget() const override { return inner_.prepaid_budget(); }
  double voltage() const override { return inner_.voltage(); }
  double headroom() const override { return inner_.headroom(); }
  bool on() const override { return inner_.on(); }
  double recharge_to_on() override { return inner_.recharge_to_on(); }
  bool starved() const override { return inner_.starved(); }
  void notify(dev::SupplyEvent e) override { inner_.notify(e); }
  void idle_until(double t_s) override { inner_.idle_until(t_s); }
  double now() const override { return inner_.now(); }

  long events() const { return events_; }
  long failures() const { return failures_; }

  // The event hash closed with the end state of the run.
  std::uint64_t digest(const dev::Device& d) const {
    std::uint64_t h = h_;
    fold(h, std::bit_cast<std::uint64_t>(inner_.voltage()));
    fold(h, std::bit_cast<std::uint64_t>(inner_.now()));
    fold(h, static_cast<std::uint64_t>(failures_));
    fold(h, std::bit_cast<std::uint64_t>(d.trace().total_energy()));
    fold(h, std::bit_cast<std::uint64_t>(d.trace().total_cycles()));
    return h;
  }

 private:
  static void fold(std::uint64_t& h, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void fold_event(double joules, double dt) {
    fold(h_, std::bit_cast<std::uint64_t>(joules));
    fold(h_, std::bit_cast<std::uint64_t>(dt));
    ++events_;
  }

  dev::PowerSupply& inner_;
  std::uint64_t h_ = 0xcbf29ce484222325ull;
  long events_ = 0;
  long failures_ = 0;
};

struct SequenceCase {
  const char* name;
  models::Task task;
  const char* runtime;   // "flex" runs the compressed model; "sonic"/"tile" the dense one
  double capacitance_f;  // on the square harvest; 0 = continuous power
  std::uint64_t digest;
  long events;
};

constexpr SequenceCase kSequenceCases[] = {
    {"mnist_flex_10uF_square", models::Task::kMnist, "flex", 10e-6, 0x61e54024703ab77cull,
     27674},
    {"mnist_flex_continuous", models::Task::kMnist, "flex", 0.0, 0x3664a6e7ae7d62b2ull, 26668},
    {"har_flex_10uF_square", models::Task::kHar, "flex", 10e-6, 0x2833b553645af951ull, 16330},
    {"har_flex_continuous", models::Task::kHar, "flex", 0.0, 0xf65cfc2e07de467aull, 15655},
    {"mnist_tile_80nF_square", models::Task::kMnist, "tile", 80e-9, 0x3805720ac6cca93full,
     1158459},
    {"mnist_sonic_continuous", models::Task::kMnist, "sonic", 0.0, 0x93afe79d9819f7a2ull,
     1299092},
    {"har_sonic_continuous", models::Task::kHar, "sonic", 0.0, 0x9571f0451742d875ull, 2189610},
    {"mnist_tile_continuous", models::Task::kMnist, "tile", 0.0, 0xe81a092e3b589b22ull, 1076160},
    {"har_tile_continuous", models::Task::kHar, "tile", 0.0, 0x214ac0b1c44f9f8aull, 1687156},
    {"mnist_sonic_10uF_square", models::Task::kMnist, "sonic", 10e-6, 0x364872a1b11a8c10ull,
     1305771},
    {"har_sonic_10uF_square", models::Task::kHar, "sonic", 10e-6, 0xfc765eaac52797b1ull,
     2192585},
    {"har_tile_80nF_square", models::Task::kHar, "tile", 80e-9, 0x6a1e85a4317bb21aull,
     1807693},
};

struct SequenceRun {
  std::uint64_t digest = 0;
  long events = 0;
  flex::RunStats stats;
};

SequenceRun run_sequence(const SequenceCase& sc, std::uint64_t scramble_seed) {
  const std::string runtime = sc.runtime;
  const bool compressed = runtime == "flex";
  Rng rng(0x5e0);
  const quant::QuantModel qm = models::make_deployed_qmodel(sc.task, compressed, rng);
  nn::Tensor x(qm.layers.front().in_shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto input = quant::quantize_input(qm, x);

  dev::DeviceConfig dcfg = models::deployment_device_config(compressed);
  dcfg.scramble_seed = scramble_seed;
  dev::Device dev(dcfg);
  power::ContinuousPower cont;
  power::SquareSource square(4e-3, 0.2e-3, 0.02, 0.5);
  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = sc.capacitance_f > 0.0 ? sc.capacitance_f : 10e-6;
  power::CapacitorSupply cap(square, ccfg);
  ChargeRecorder rec(sc.capacitance_f > 0.0 ? static_cast<dev::PowerSupply&>(cap)
                                            : static_cast<dev::PowerSupply&>(cont));
  dev.attach_supply(&rec);
  const auto cm = ace::compile(qm, dev);
  // Tile runs under the micro-capacitor fleet's run limits
  // (configs/fleet_microcap.cfg); FLEX and SONIC under the defaults.
  flex::RunOptions opts;
  if (runtime == "tile") {
    opts.max_reboots = 400000;
    opts.max_futile_boots = 400;
  }
  const auto policy = runtime == "tile"    ? flex::make_tile_policy()
                      : runtime == "sonic" ? flex::make_sonic_policy()
                                           : flex::make_flex_policy();
  SequenceRun run;
  run.stats = flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
  run.digest = rec.digest(dev);
  run.events = rec.events();
  return run;
}

void expect_same_stats(const flex::RunStats& a, const flex::RunStats& b, const char* name) {
  EXPECT_EQ(a.outcome, b.outcome) << name;
  EXPECT_EQ(a.output, b.output) << name;
  EXPECT_EQ(a.on_seconds, b.on_seconds) << name;
  EXPECT_EQ(a.off_seconds, b.off_seconds) << name;
  EXPECT_EQ(a.energy_j, b.energy_j) << name;
  for (std::size_t r = 0; r < std::size(a.energy_by_rail); ++r) {
    EXPECT_EQ(a.energy_by_rail[r], b.energy_by_rail[r]) << name << " rail " << r;
  }
  EXPECT_EQ(a.reboots, b.reboots) << name;
  EXPECT_EQ(a.livelock, b.livelock) << name;
  EXPECT_EQ(a.checkpoints, b.checkpoints) << name;
  EXPECT_EQ(a.checkpoint_energy_j, b.checkpoint_energy_j) << name;
  EXPECT_EQ(a.progress_commits, b.progress_commits) << name;
  EXPECT_EQ(a.units_executed, b.units_executed) << name;
  EXPECT_EQ(a.units_total, b.units_total) << name;
}

class ChargeSequence : public ::testing::TestWithParam<SequenceCase> {};

TEST_P(ChargeSequence, MatchesPinnedHash) {
  const SequenceCase sc = GetParam();
  const SequenceRun run = run_sequence(sc, dev::DeviceConfig{}.scramble_seed);
  const flex::RunStats& st = run.stats;

  ASSERT_TRUE(st.completed()) << sc.name;
  if (sc.capacitance_f > 0.0) {
    EXPECT_GT(st.reboots, 0) << sc.name << ": the harvested case must brown out";
  } else {
    EXPECT_EQ(st.reboots, 0) << sc.name;
  }
  std::printf("%s: digest 0x%016llx over %ld events, %ld reboots\n", sc.name,
              static_cast<unsigned long long>(run.digest), run.events, st.reboots);
  EXPECT_EQ(run.events, sc.events) << sc.name;
  EXPECT_EQ(run.digest, sc.digest)
      << sc.name << ": a modeled charge moved, merged or changed";

  const SequenceRun other = run_sequence(sc, 0x5eed2026);
  EXPECT_EQ(other.events, run.events) << sc.name << ": SRAM garbage changed the charges";
  EXPECT_EQ(other.digest, run.digest) << sc.name << ": SRAM garbage changed the charges";
  expect_same_stats(other.stats, st, sc.name);
}

INSTANTIATE_TEST_SUITE_P(Pinned, ChargeSequence, ::testing::ValuesIn(kSequenceCases),
                         [](const ::testing::TestParamInfo<SequenceCase>& info) {
                           return std::string(info.param.name);
                         });

// The charge runs' test oracle is the device's per-op mode:
// set_bulk_enabled(false) refuses every charge run, so SONIC's and TILE's
// MAC loops draw each charge through the real ops. Under continuous power
// SONIC, whose every other charge is a scalar op too, must reproduce the
// output, every RunStats field, the trace to the bit and the event ring
// to the stamp. TILE also stages its operands with read_block and
// read_gather, which per-op mode splits into per-word draws whose sums
// round differently, so TILE's joules and stamps are compared to 1e-9
// relative here; its charge sequence is pinned bit for bit by the
// *_tile_continuous hashes above. A run settles its draws with the supply
// before it returns, so a commit stamps the supply clock after its unit's
// MACs and commit stamps strictly increase.
struct OracleRun {
  flex::RunStats stats;
  dev::EnergyTrace trace;
  std::vector<obs::Event> events;
  std::uint64_t digest = 0;  // the settled draws, in order (ChargeRecorder)
  long draws = 0;
};

OracleRun run_scalar_runtime(models::Task task, const std::string& runtime, bool bulk) {
  Rng rng(0x5e0);
  const quant::QuantModel qm = models::make_deployed_qmodel(task, /*compressed=*/false, rng);
  nn::Tensor x(qm.layers.front().in_shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto input = quant::quantize_input(qm, x);

  dev::Device dev(models::deployment_device_config(/*compressed=*/false));
  dev.set_bulk_enabled(bulk);
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  obs::EventTrace events(std::size_t{1} << 18);
  flex::RunOptions opts;
  opts.trace = &events;
  const auto policy = runtime == "tile" ? flex::make_tile_policy() : flex::make_sonic_policy();
  OracleRun run;
  run.stats = flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
  run.trace = dev.trace();
  run.events = events.snapshot();
  EXPECT_EQ(events.dropped(), 0) << runtime << ": ring too small";
  return run;
}

TEST(ChargeRuns, ScalarRuntimesMatchPerOpOracle) {
  for (const models::Task task : {models::Task::kMnist, models::Task::kHar}) {
    for (const std::string runtime : {"sonic", "tile"}) {
      const std::string name = std::string(models::task_name(task)) + "/" + runtime;
      const bool exact = runtime == "sonic";
      const auto same = [exact](double a, double b) {
        return exact ? a == b : std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
      };
      const OracleRun bulk = run_scalar_runtime(task, runtime, true);
      const OracleRun per_op = run_scalar_runtime(task, runtime, false);
      const flex::RunStats& a = bulk.stats;
      const flex::RunStats& b = per_op.stats;
      ASSERT_TRUE(a.completed()) << name;
      if (exact) {
        expect_same_stats(a, b, name.c_str());
      } else {
        EXPECT_EQ(a.output, b.output) << name;
        EXPECT_TRUE(same(a.on_seconds, b.on_seconds)) << name;
        EXPECT_TRUE(same(a.energy_j, b.energy_j)) << name;
        EXPECT_EQ(a.progress_commits, b.progress_commits) << name;
        EXPECT_EQ(a.units_executed, b.units_executed) << name;
      }
      EXPECT_TRUE(same(bulk.trace.total_energy(), per_op.trace.total_energy())) << name;
      EXPECT_EQ(bulk.trace.total_cycles(), per_op.trace.total_cycles()) << name;
      for (std::size_t r = 0; r < static_cast<std::size_t>(dev::Rail::kCount); ++r) {
        const auto rail = static_cast<dev::Rail>(r);
        EXPECT_TRUE(same(bulk.trace.energy(rail), per_op.trace.energy(rail)))
            << name << " rail " << r;
        EXPECT_EQ(bulk.trace.cycles(rail), per_op.trace.cycles(rail)) << name << " rail " << r;
      }
      ASSERT_EQ(bulk.events.size(), per_op.events.size()) << name;
      double last_commit = -1.0;
      long commits = 0;
      for (std::size_t i = 0; i < bulk.events.size(); ++i) {
        const obs::Event& ea = bulk.events[i];
        const obs::Event& eb = per_op.events[i];
        ASSERT_EQ(ea.kind, eb.kind) << name << " event " << i;
        ASSERT_EQ(ea.a, eb.a) << name << " event " << i;
        ASSERT_EQ(ea.b, eb.b) << name << " event " << i;
        ASSERT_TRUE(same(ea.t_s, eb.t_s)) << name << " event " << i;
        if (ea.kind != obs::EventKind::kCommit) continue;
        ASSERT_GT(ea.t_s, last_commit) << name << ": commit " << commits << " stamp froze";
        last_commit = ea.t_s;
        ++commits;
      }
      EXPECT_GT(commits, 100) << name;
    }
  }
}

// ContinuousPower that does not report infallible(): the device then
// refuses every charge run (bulk stays on), and each repetition draws
// through the loop body's real ops, settled one consume() at a time.
class FallibleContinuousPower : public power::ContinuousPower {
 public:
  bool infallible() const override { return false; }
};

OracleRun run_on_supply(models::Task task, const std::string& runtime,
                        power::ContinuousPower& supply) {
  const bool compressed = runtime == "ace" || runtime == "flex";
  Rng rng(0x5e0);
  const quant::QuantModel qm = models::make_deployed_qmodel(task, compressed, rng);
  nn::Tensor x(qm.layers.front().in_shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto input = quant::quantize_input(qm, x);

  dev::Device dev(models::deployment_device_config(compressed));
  ChargeRecorder rec(supply);
  dev.attach_supply(&rec);
  const auto cm = ace::compile(qm, dev);
  obs::EventTrace events(std::size_t{1} << 18);
  flex::RunOptions opts;
  opts.trace = &events;
  const auto policy = runtime == "tile"    ? flex::make_tile_policy()
                      : runtime == "sonic" ? flex::make_sonic_policy()
                      : runtime == "ace"   ? flex::make_ace_policy()
                                           : flex::make_flex_policy();
  OracleRun run;
  run.stats = flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
  run.trace = dev.trace();
  run.events = events.snapshot();
  run.digest = rec.digest(dev);
  run.draws = rec.events();
  EXPECT_EQ(events.dropped(), 0) << runtime << ": ring too small";
  return run;
}

// Every runtime whose loops charge through charge runs — SONIC's and
// TILE's MAC loops, ACE's and FLEX's conv rows (conv2d on MNIST, conv1d
// on HAR) — must leave the same bits whether its runs settle in batches
// or every repetition settles per op, down to the order of the draws.
TEST(ChargeRuns, EveryRuntimeMatchesPerOpSettlement) {
  for (const models::Task task : {models::Task::kMnist, models::Task::kHar}) {
    for (const std::string runtime : {"sonic", "tile", "ace", "flex"}) {
      const std::string name = std::string(models::task_name(task)) + "/" + runtime;
      power::ContinuousPower s_runs;
      FallibleContinuousPower s_per_op;
      const OracleRun runs = run_on_supply(task, runtime, s_runs);
      const OracleRun per_op = run_on_supply(task, runtime, s_per_op);
      ASSERT_TRUE(runs.stats.completed()) << name;
      expect_same_stats(runs.stats, per_op.stats, name.c_str());
      EXPECT_EQ(s_runs.now(), s_per_op.now()) << name;
      EXPECT_EQ(s_runs.energy_drawn(), s_per_op.energy_drawn()) << name;
      EXPECT_EQ(runs.draws, per_op.draws) << name;
      EXPECT_EQ(runs.digest, per_op.digest) << name << ": a draw moved, merged or changed";
      for (std::size_t r = 0; r < static_cast<std::size_t>(dev::Rail::kCount); ++r) {
        const auto rail = static_cast<dev::Rail>(r);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(runs.trace.energy(rail)),
                  std::bit_cast<std::uint64_t>(per_op.trace.energy(rail)))
            << name << " rail " << r;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(runs.trace.cycles(rail)),
                  std::bit_cast<std::uint64_t>(per_op.trace.cycles(rail)))
            << name << " rail " << r;
      }
      ASSERT_EQ(runs.events.size(), per_op.events.size()) << name;
      long commits = 0;
      for (std::size_t i = 0; i < runs.events.size(); ++i) {
        const obs::Event& ea = runs.events[i];
        const obs::Event& eb = per_op.events[i];
        ASSERT_EQ(ea.kind, eb.kind) << name << " event " << i;
        ASSERT_EQ(ea.a, eb.a) << name << " event " << i;
        ASSERT_EQ(ea.b, eb.b) << name << " event " << i;
        ASSERT_EQ(ea.t_s, eb.t_s) << name << " event " << i;
        commits += ea.kind == obs::EventKind::kCommit ? 1 : 0;
      }
      EXPECT_GT(commits, 0) << name;
    }
  }
}

}  // namespace
}  // namespace ehdnn
