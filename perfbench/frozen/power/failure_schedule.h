// Deterministic brown-out injection for crash-consistency fuzzing.
//
// A FailureScheduleSupply never runs out of energy; instead it *decides*
// to fail, driven entirely by a seed, so every failure schedule is
// replayable. Each power cycle draws one trigger from the seeded RNG:
//
//   * after-N-consumes — fail mid-block, at an arbitrary costed operation
//     (N log-uniform, so both instant re-deaths and long runs occur);
//   * at-commit-begin  — wait for the k-th progress-commit / checkpoint
//     write announced via notify(), then fail within its first few words:
//     the write tears (the classic intermittent W-A-R hazard);
//   * at-commit-end    — fail on the first consume after a commit
//     boundary: progress persisted, nothing else did.
//
// The supply also fakes the voltage-monitor signal: it reports a low
// voltage for the last `warn_window` consumes before an armed failure
// (window drawn per cycle, sometimes zero), which drives FLEX through its
// warned, unwarned, and torn-checkpoint recovery paths. Per cycle it also
// flips between zero and infinite headroom, so the device's bulk fast
// paths are exercised both word-granularly (torn FRAM prefixes) and as
// aggregated all-or-nothing draws.
//
// After `max_failures` injected failures the supply stops failing and the
// inference runs to completion — every fuzz iteration terminates, and the
// final output can be compared bit-for-bit against the continuous-power
// oracle (the contract in src/core/flex/runtime.h).
//
// Config::prepaid additionally opts the supply into the device's
// prepaid-headroom window: a per-cycle joule budget (log-uniform, often
// tiny) lets the device buffer draws and settle them in batches, with
// draws too large for the remaining budget falling back to per-op
// settlement — the headroom boundary. To stay honest about the prepaid
// contract ("draws within the budget provably cannot brown out"), a due
// failure never fires inside consume_batch: the countdown clamps at 1
// across the batch and the brown-out lands on the NEXT per-op consume —
// i.e. exactly on the first over-budget draw after a (torn) settlement.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "device/power_interface.h"
#include "util/rng.h"

namespace ehdnn::power {

class FailureScheduleSupply : public dev::PowerSupply {
 public:
  struct Config {
    long max_failures = 40;   // failure budget per inference
    double off_time_s = 1e-3; // fixed recharge gap per failure
    double v_ok = 3.3;        // reported far from a failure
    double v_low = 2.3;       // reported within the warn window
    // Opt into the device's prepaid-headroom window (see file comment):
    // failures then aim at the per-op draws around settlement boundaries.
    bool prepaid = false;
  };

  explicit FailureScheduleSupply(std::uint64_t seed)
      : FailureScheduleSupply(seed, Config()) {}
  FailureScheduleSupply(std::uint64_t seed, Config cfg) : cfg_(cfg), rng_(seed) {
    plan_cycle();
  }

  bool consume(double joules, double dt) override {
    energy_drawn_ += joules;
    now_ += dt;
    if (countdown_ > 0 && --countdown_ == 0) {
      on_ = false;
      ++failures_;
      return false;
    }
    return true;
  }

  // Prepaid draws were advertised as provably safe, so a due failure is
  // deferred past the batch (countdown clamps at 1) and fires on the next
  // per-op consume — the over-budget draw at the headroom boundary.
  std::size_t consume_batch(const dev::SpendEvent* ev, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      energy_drawn_ += ev[i].joules;
      now_ += ev[i].dt;
      if (countdown_ > 1) --countdown_;
    }
    return n;
  }

  bool prepay_safe() const override { return cfg_.prepaid; }

  double prepaid_budget() const override { return cfg_.prepaid ? budget_ : 0.0; }

  double voltage() const override {
    return countdown_ > 0 && countdown_ <= warn_window_ ? cfg_.v_low : cfg_.v_ok;
  }

  double headroom() const override {
    return word_granular_ ? 0.0 : std::numeric_limits<double>::infinity();
  }

  bool on() const override { return on_; }

  double recharge_to_on() override {
    on_ = true;
    plan_cycle();
    return cfg_.off_time_s;
  }

  void idle_until(double t_s) override { now_ = std::max(now_, t_s); }

  double now() const override { return now_; }

  void notify(dev::SupplyEvent e) override {
    if (trigger_ == Trigger::kNone || events_left_ == 0) return;
    const bool begin = e == dev::SupplyEvent::kCommitBegin ||
                       e == dev::SupplyEvent::kCheckpointBegin;
    const bool end =
        e == dev::SupplyEvent::kCommitEnd || e == dev::SupplyEvent::kCheckpointEnd;
    if ((trigger_ == Trigger::kAtCommitBegin && begin) ||
        (trigger_ == Trigger::kAtCommitEnd && end)) {
      if (--events_left_ == 0) {
        // Arm: tear within the write (begin) or die right after it (end).
        countdown_ = trigger_ == Trigger::kAtCommitBegin
                         ? 1 + static_cast<long>(rng_.below(6))
                         : 1;
      }
    }
  }

  long failures() const { return failures_; }
  double energy_drawn() const { return energy_drawn_; }

 private:
  enum class Trigger { kNone, kAfterConsumes, kAtCommitBegin, kAtCommitEnd };

  // Draw the next cycle's trigger. Runs at boot, so the countdown always
  // leaves room for the reboot spend itself (min 2 consumes).
  void plan_cycle() {
    countdown_ = -1;  // disarmed
    events_left_ = 0;
    warn_window_ = rng_.chance(0.3) ? 0 : static_cast<long>(rng_.below(13));
    word_granular_ = rng_.chance(0.5);
    // Prepaid window budget for this cycle: zero (per-op settlement, the
    // classic path) or log-uniform across ~[10 pJ, 0.1 uJ] — from "every
    // word op overflows the window" to "thousands of draws buffer before
    // a settle", so brown-outs land on boundary draws of every size.
    budget_ = rng_.chance(0.25) ? 0.0 : std::pow(10.0, rng_.uniform(-11.0, -7.0));
    if (failures_ >= cfg_.max_failures) {
      trigger_ = Trigger::kNone;  // budget spent: run to completion
      return;
    }
    const double pick = rng_.uniform();
    if (pick < 0.5) {
      trigger_ = Trigger::kAfterConsumes;
      // Log-uniform horizon, 2 .. ~2^11 consumes: short enough to fire
      // even when bulk aggregation collapses whole blocks into single
      // consume events, long-tailed enough for multi-unit runs.
      const double exp = rng_.uniform(1.0, 11.0);
      countdown_ = 2 + static_cast<long>(std::pow(2.0, exp));
    } else {
      trigger_ = pick < 0.8 ? Trigger::kAtCommitBegin : Trigger::kAtCommitEnd;
      events_left_ = 1 + static_cast<long>(rng_.below(6));
    }
  }

  Config cfg_;
  Rng rng_;
  Trigger trigger_ = Trigger::kNone;
  long countdown_ = -1;     // consumes until failure; <= 0 disarmed
  long events_left_ = 0;    // matching notify() events until arming
  long warn_window_ = 0;    // consumes before failure with v_low reported
  bool word_granular_ = false;
  double budget_ = 0.0;     // per-cycle prepaid budget (joules)
  bool on_ = true;
  long failures_ = 0;
  double now_ = 0.0;
  double energy_drawn_ = 0.0;
};

}  // namespace ehdnn::power
