// The power-supply interface the device draws from.
//
// Implementations live in src/power (capacitor + harvest source,
// continuous bench supply). The device calls consume() for every costed
// operation; a false return means the storage capacitor fell below the
// brown-out threshold mid-operation. The device then latches its
// brown-out state (Device::browned_out), the running code returns at its
// next unit boundary, and the intermittent executor in src/core/flex
// simulates the off period and the reboot.
#pragma once

#include <cstddef>
#include <limits>

namespace ehdnn::dev {

// One recorded costed operation, buffered by the device's prepaid-headroom
// window and settled with the supply in order at the next settlement point.
struct SpendEvent {
  double joules = 0.0;
  double dt = 0.0;
};

// Execution landmarks the intermittent runtimes announce to the supply.
// Physical supplies ignore them; schedule-driven supplies (the
// crash-consistency fuzzer's FailureScheduleSupply) use them to aim
// brown-outs at adversarial instants: tearing a progress-commit or
// checkpoint write, or failing exactly on a commit boundary.
enum class SupplyEvent {
  kCommitBegin,      // FRAM progress-commit writes start (SONIC/TAILS)
  kCommitEnd,        // progress-commit writes landed
  kCheckpointBegin,  // FLEX checkpoint write starts (payload first)
  kCheckpointEnd,    // checkpoint sequence word landed
  kReboot,           // device rebooted after a failure
};

class PowerSupply {
 public:
  virtual ~PowerSupply() = default;

  // Draw `joules` over `dt` seconds (harvest income accrues over the same
  // window). Returns false on brown-out; the energy is drained regardless
  // (the capacitor empties into the dying device).
  virtual bool consume(double joules, double dt) = 0;

  // Settle a batch of recorded draws, equivalent to calling consume() once
  // per event in order. Returns the index of the first event that browned
  // out, or `n` when every draw succeeded. Overrides may cache
  // source-segment state across the batch but must preserve per-event
  // arithmetic and failure instants exactly — the prepaid window's
  // contract is that buffering then settling is indistinguishable from
  // immediate per-op settlement.
  virtual std::size_t consume_batch(const SpendEvent* ev, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!consume(ev[i].joules, ev[i].dt)) return i;
    }
    return n;
  }

  // True when the device may run a prepaid-headroom window against this
  // supply: draws within a budget established from headroom() provably
  // cannot brown out, so they may be buffered and settled later.
  // Schedule-driven supplies (the fuzzer's FailureScheduleSupply) count
  // individual consume() calls to aim failures and must stay opted out.
  virtual bool prepay_safe() const { return false; }

  // True when consume() never returns false: every draw succeeds whatever
  // its size or the supply's state, and headroom() is infinite. A device
  // on such a supply (and outside any prepaid window) settles a charge
  // run's draws (Device::charge_run) through consume_batch() instead of
  // one consume() each, before the run returns; every batch must settle
  // all its events, in order, or the device fails. Only the bench supply
  // (power/continuous.h) reports it. A supply that counts or aims
  // individual draws must not.
  virtual bool infallible() const { return false; }

  // The energy budget a prepaid window may be armed with right now: a
  // headroom() shaved by the supply's own rounding slack, so that a batch
  // of draws summing within the budget provably settles without a
  // brown-out even after per-event floating-point rounding. Zero (the
  // default, and always near the brown-out threshold) means per-op
  // settlement — which is what keeps failure instants bit-exact.
  virtual double prepaid_budget() const { return 0.0; }

  // Current storage voltage — what FLEX's voltage monitor samples.
  virtual double voltage() const = 0;

  // Conservative lower bound on the energy (joules) that can be drawn
  // before brown-out, ignoring harvest income. The device's bulk-access
  // fast paths use this to decide whether a whole block can be charged in
  // one aggregated event: if the block's energy fits the headroom, the
  // draw provably succeeds (income only adds). Near brown-out the device
  // falls back to word-granular accounting so blocks tear — and charge
  // the supply — exactly like the scalar path. Note the aggregated draw samples
  // harvest income once over the block window instead of per word, so
  // under a time-varying source the stored-energy trajectory — and hence
  // *later* failure timing — may differ slightly from the scalar path;
  // device-side cost totals and (by the runtimes' checkpoint contract)
  // inference outputs are unaffected. Supplies that never fail report
  // infinity.
  virtual double headroom() const { return std::numeric_limits<double>::infinity(); }

  virtual bool on() const = 0;

  // Advance time with the device off until the turn-on threshold is
  // reached again; returns the off-time in seconds. A supply whose
  // harvester has starved (no boot within its off-time guard) returns the
  // time it waited with on() still false and starved() true — the caller
  // decides whether to give up (RunStats::Outcome::kStarved) or wait more.
  virtual double recharge_to_on() = 0;

  // True when the last recharge_to_on() gave up before reaching the boot
  // threshold.
  virtual bool starved() const { return false; }

  // Runtime-to-supply event channel (no-op for physical supplies).
  virtual void notify(SupplyEvent /*event*/) {}

  // Duty-cycle sleep: advance supply time to `t_s` (absolute seconds, as
  // reported by now()) with the device idle — no load, harvest income
  // still accrues. The scheduling layer (sched::JobQueue) parks a device
  // here between a job's completion and the next job's release. No-op
  // when t_s is in the past.
  virtual void idle_until(double /*t_s*/) {}

  // Elapsed supply-side time (on + off + idle), seconds.
  virtual double now() const = 0;
};

}  // namespace ehdnn::dev
