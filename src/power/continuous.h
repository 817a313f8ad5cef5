// Bench (continuous) power: never browns out. Used for the paper's
// "continuous power supply" experiments (Fig. 7a) and as the oracle runs
// the intermittent outputs must match bit-for-bit.
//
// It reports infallible(), so the device settles each charge run
// (Device::charge_run) through consume_batch() before the run returns,
// and stays out of the prepaid window (prepay_safe() is false): a window
// would settle only at slice boundaries and voltage samples, so every
// supply-clock stamp in between (obs_now_s, the commit events) would
// freeze at the last settlement.
#pragma once

#include <algorithm>

#include "device/power_interface.h"

namespace ehdnn::power {

class ContinuousPower : public dev::PowerSupply {
 public:
  explicit ContinuousPower(double volts = 3.3) : volts_(volts) {}

  bool consume(double joules, double dt) override {
    energy_drawn_ += joules;
    now_ += dt;
    return true;
  }
  // The same sums, in the same order, as one consume() per event.
  std::size_t consume_batch(const dev::SpendEvent* ev, std::size_t n) override {
    double drawn = energy_drawn_;
    double now = now_;
    for (std::size_t i = 0; i < n; ++i) {
      drawn += ev[i].joules;
      now += ev[i].dt;
    }
    energy_drawn_ = drawn;
    now_ = now;
    return n;
  }
  bool infallible() const override { return true; }
  double voltage() const override { return volts_; }
  bool on() const override { return true; }
  double recharge_to_on() override { return 0.0; }
  void idle_until(double t_s) override { now_ = std::max(now_, t_s); }
  double now() const override { return now_; }

  double energy_drawn() const { return energy_drawn_; }

 private:
  double volts_;
  double now_ = 0.0;
  double energy_drawn_ = 0.0;
};

}  // namespace ehdnn::power
