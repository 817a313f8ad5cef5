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
// power (every charge settles as its own consume()).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

#include "core/ace/compiled_model.h"
#include "core/flex/runtime.h"
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
  bool harvested;  // 10 uF square harvest; false = continuous power
  std::uint64_t digest;
  long events;
};

constexpr SequenceCase kSequenceCases[] = {
    {"mnist_flex_10uF_square", models::Task::kMnist, true, 0x61e54024703ab77cull, 27674},
    {"mnist_flex_continuous", models::Task::kMnist, false, 0x3664a6e7ae7d62b2ull, 26668},
    {"har_flex_10uF_square", models::Task::kHar, true, 0x2833b553645af951ull, 16330},
    {"har_flex_continuous", models::Task::kHar, false, 0xf65cfc2e07de467aull, 15655},
};

class ChargeSequence : public ::testing::TestWithParam<SequenceCase> {};

TEST_P(ChargeSequence, MatchesPinnedHash) {
  const SequenceCase sc = GetParam();
  Rng rng(0x5e0);
  const quant::QuantModel qm =
      models::make_deployed_qmodel(sc.task, /*compressed=*/true, rng);
  nn::Tensor x(qm.layers.front().in_shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto input = quant::quantize_input(qm, x);

  dev::Device dev(models::deployment_device_config(/*compressed=*/true));
  power::ContinuousPower cont;
  power::SquareSource square(4e-3, 0.2e-3, 0.02, 0.5);
  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = 10e-6;
  power::CapacitorSupply cap(square, ccfg);
  ChargeRecorder rec(sc.harvested ? static_cast<dev::PowerSupply&>(cap)
                                  : static_cast<dev::PowerSupply&>(cont));
  dev.attach_supply(&rec);
  const auto cm = ace::compile(qm, dev);
  const flex::RunStats st = flex::make_flex_runtime()->infer(dev, cm, input);

  ASSERT_TRUE(st.completed()) << sc.name;
  if (sc.harvested) {
    EXPECT_GT(st.reboots, 0) << sc.name << ": the harvested case must brown out";
  } else {
    EXPECT_EQ(st.reboots, 0) << sc.name;
  }
  const std::uint64_t got = rec.digest(dev);
  std::printf("%s: digest 0x%016llx over %ld events, %ld reboots\n", sc.name,
              static_cast<unsigned long long>(got), rec.events(), st.reboots);
  EXPECT_EQ(rec.events(), sc.events) << sc.name;
  EXPECT_EQ(got, sc.digest) << sc.name << ": a modeled charge moved, merged or changed";
}

INSTANTIATE_TEST_SUITE_P(Pinned, ChargeSequence, ::testing::ValuesIn(kSequenceCases),
                         [](const ::testing::TestParamInfo<SequenceCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ehdnn
