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

#include <array>
#include <cstddef>
#include <limits>
#include <span>

namespace ehdnn::dev {

// One recorded costed operation, buffered by the device's prepaid-headroom
// window and settled with the supply in order at the next settlement point.
struct SpendEvent {
  double joules = 0.0;
  double dt = 0.0;
};

// A charge run (Device::charge_run) as one settlement entry: `reps`
// repetitions of the draws steps[0, n), in that order, so reps * n draws.
struct SpendRun {
  static constexpr std::size_t kMaxSteps = 4;
  std::array<SpendEvent, kMaxSteps> steps{};
  std::size_t n = 0;
  std::size_t reps = 0;
  std::size_t at = 0;  // settles after the batch's first `at` single draws
};

// The draws one settlement replays: the single draws in order, with each
// run settled after the first `at` of them (runs in order of `at`).
struct SpendBatch {
  std::span<const SpendEvent> draws;
  std::span<const SpendRun> runs;

  std::size_t size() const {
    std::size_t n = draws.size();
    for (const SpendRun& r : runs) n += r.reps * r.n;
    return n;
  }
};

// Calls draw(ev) for each draw of `b` in settlement order, a run's draws
// expanded, until a call returns false. Returns the index of that draw,
// or b.size() when every call returned true. Forced inline, so the call
// to `draw` inlines into the loop (the default consume_batch and
// FailureScheduleSupply's settle through it).
template <class Draw>
[[gnu::always_inline]] inline std::size_t for_each_draw(const SpendBatch& b, Draw&& draw) {
  std::size_t idx = 0, pos = 0;
  for (const SpendRun& r : b.runs) {
    for (; pos < r.at; ++pos, ++idx) {
      if (!draw(b.draws[pos])) return idx;
    }
    // One flat loop over the run's draws (a step index that wraps), so a
    // short pattern costs no inner-loop exit per repetition.
    const std::size_t n = r.reps * r.n;
    for (std::size_t k = 0, i = 0; k < n; ++k, ++idx) {
      if (!draw(r.steps[i])) return idx;
      i = i + 1 == r.n ? 0 : i + 1;
    }
  }
  for (; pos < b.draws.size(); ++pos, ++idx) {
    if (!draw(b.draws[pos])) return idx;
  }
  return idx;
}

// The running sums of a supply that never refuses a draw: consume(j, dt)
// is exactly `energy_j += j; now_s += dt` and nothing else. The device
// adds a charge run's draws to these itself, in draw order, in the same
// loop as its energy trace (Device::charge_run).
struct SupplyLedger {
  double energy_j = 0.0;  // drawn so far
  double now_s = 0.0;     // the supply clock
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
  // per draw in settlement order. Returns the index of the first draw
  // that browned out, or b.size() when every draw succeeded. Overrides may
  // cache source-segment state across the batch and settle a run's
  // repetitions in closed form, but must reproduce the per-draw
  // arithmetic and failure instants exactly: the prepaid window's
  // contract is that buffering then settling is indistinguishable from
  // immediate per-op settlement.
  virtual std::size_t consume_batch(const SpendBatch& b) {
    return for_each_draw(b, [&](const SpendEvent& e) { return consume(e.joules, e.dt); });
  }

  // True when the device may run a prepaid-headroom window against this
  // supply: draws within a budget established from headroom() provably
  // cannot brown out, so they may be buffered and settled later.
  // Schedule-driven supplies (the fuzzer's FailureScheduleSupply) count
  // individual consume() calls to aim failures and must stay opted out.
  virtual bool prepay_safe() const { return false; }

  // The ledger that holds this supply's sums when every consume() is
  // exactly an add to them (see SupplyLedger), else nullptr. A device on
  // such a supply (and outside any prepaid window) adds a charge run's
  // draws to the ledger directly instead of calling consume() once per
  // draw. Only the bench supply (power/continuous.h) returns one. A
  // supply that counts, aims or wraps individual draws must not.
  virtual SupplyLedger* ledger() { return nullptr; }

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
  // the supply — exactly like the scalar path. The aggregated draw is its
  // own model, not the per-word sequence's: on a capacitor it integrates
  // harvest income and meets the v_max clamp once per block instead of
  // once per word, so the stored-energy trajectory differs, and with it
  // later failure instants, reboots, checkpoints and a run's energy
  // totals (FLEET_MICROCAP: 0.03117 J aggregated against 0.03414 J per
  // word). Inference outputs stay the same by the runtimes' checkpoint
  // contract. Supplies that never fail report infinity.
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
