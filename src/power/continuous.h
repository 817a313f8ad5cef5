// Bench (continuous) power: never browns out. Used for the paper's
// "continuous power supply" experiments (Fig. 7a) and as the oracle runs
// the intermittent outputs must match bit-for-bit.
//
// Its sums live in a dev::SupplyLedger that ledger() hands to the device,
// so a charge run (Device::charge_run) adds its draws to them in the
// same loop as the device's energy trace, in draw order, exactly as one
// consume() per draw would. It stays out of the prepaid window
// (prepay_safe() is false): a window would settle only at slice
// boundaries and voltage samples, so every supply-clock stamp in between
// (obs_now_s, the commit events) would freeze at the last settlement.
#pragma once

#include <algorithm>

#include "device/power_interface.h"

namespace ehdnn::power {

class ContinuousPower : public dev::PowerSupply {
 public:
  explicit ContinuousPower(double volts = 3.3) : volts_(volts) {}

  bool consume(double joules, double dt) override {
    ledger_.energy_j += joules;
    ledger_.now_s += dt;
    return true;
  }
  dev::SupplyLedger* ledger() override { return &ledger_; }
  double voltage() const override { return volts_; }
  bool on() const override { return true; }
  double recharge_to_on() override { return 0.0; }
  void idle_until(double t_s) override { ledger_.now_s = std::max(ledger_.now_s, t_s); }
  double now() const override { return ledger_.now_s; }

  double energy_drawn() const { return ledger_.energy_j; }

 private:
  double volts_;
  dev::SupplyLedger ledger_;
};

}  // namespace ehdnn::power
