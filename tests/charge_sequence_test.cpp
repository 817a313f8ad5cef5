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
// power (every charge settles as its own consume()); plus the dense MNIST
// model under the tile runtime on the 80 nF micro-capacitor fleet's
// harvest, thousands of reboots most of which never touch SRAM.
//
// Every case also runs under a second scramble seed and must reproduce
// the hash, the output and every RunStats field. That is the
// crash-consistency contract seen end to end: what SRAM holds after a
// reboot is garbage no runtime may depend on, so which garbage it is
// cannot change a charge.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "models/zoo.h"
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
  std::size_t consume_batch(const dev::SpendEvent* ev, std::size_t n) override {
    const std::size_t done = inner_.consume_batch(ev, n);
    // A failing event is drained too (the capacitor empties into it).
    const std::size_t drained = std::min(n, done + 1);
    for (std::size_t i = 0; i < drained; ++i) fold_event(ev[i].joules, ev[i].dt);
    failures_ += done == n ? 0 : 1;
    return done;
  }
  bool prepay_safe() const override { return inner_.prepay_safe(); }
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
  bool tile;             // tile runtime on the dense model; false = FLEX, compressed
  double capacitance_f;  // on the square harvest; 0 = continuous power
  std::uint64_t digest;
  long events;
};

constexpr SequenceCase kSequenceCases[] = {
    {"mnist_flex_10uF_square", models::Task::kMnist, false, 10e-6, 0x61e54024703ab77cull,
     27674},
    {"mnist_flex_continuous", models::Task::kMnist, false, 0.0, 0x3664a6e7ae7d62b2ull, 26668},
    {"har_flex_10uF_square", models::Task::kHar, false, 10e-6, 0x2833b553645af951ull, 16330},
    {"har_flex_continuous", models::Task::kHar, false, 0.0, 0xf65cfc2e07de467aull, 15655},
    {"mnist_tile_80nF_square", models::Task::kMnist, true, 80e-9, 0x3805720ac6cca93full,
     1158459},
};

struct SequenceRun {
  std::uint64_t digest = 0;
  long events = 0;
  flex::RunStats stats;
};

SequenceRun run_sequence(const SequenceCase& sc, std::uint64_t scramble_seed) {
  const bool compressed = !sc.tile;
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
  // (configs/fleet_microcap.cfg); FLEX under the defaults.
  flex::RunOptions opts;
  if (sc.tile) {
    opts.max_reboots = 400000;
    opts.max_futile_boots = 400;
  }
  const auto policy = sc.tile ? flex::make_tile_policy() : flex::make_flex_policy();
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

}  // namespace
}  // namespace ehdnn
