#include "core/flex/executor.h"

#include <chrono>

namespace ehdnn::flex {

void IntermittentExecutor::start(dev::Device& dev, const ace::CompiledModel& cm,
                                 std::span<const fx::q15_t> input, const RunOptions& opts) {
  // A run abandoned on a browned-out device left it latched; this run's
  // first op meets whatever the supply holds now.
  dev.clear_brown_out();
  dev_ = &dev;
  cm_ = &cm;
  input_ = input;
  opts_ = opts;
  st_ = RunStats{};
  st_.units_total = policy_->units_total(cm);
  base_ = mark(dev);
  attempt_start_cycles_ = 0.0;
  futile_boots_ = 0;
  banked_mark_ = 0;
  need_recover_ = false;
  need_boot_ = true;
  fresh_ = true;
  done_ = false;
}

void IntermittentExecutor::finish() {
  fill_stats(st_, *dev_, base_);
  if (st_.completed()) st_.output = read_output(*dev_, policy_->output_model(*cm_));
  done_ = true;
}

bool IntermittentExecutor::step() {
  PhaseProfile* const prof = opts_.profile;
  if (prof == nullptr) return step_impl(nullptr);
  int phase = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const bool more = step_impl(&phase);
  const double dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  switch (phase) {
    case 1:
      prof->recharge_s += dt;
      ++*prof->recoveries;
      break;
    case 2:
      prof->boot_s += dt;
      ++*prof->boots;
      break;
    default:
      // Checkpoint writes inside the slice have already moved their share
      // from kernel_s to checkpoint_s (see FlexPolicy::write_checkpoint).
      prof->kernel_s += dt;
      ++*prof->slices;
      break;
  }
  return more;
}

bool IntermittentExecutor::step_impl(int* phase) {
  if (done_) return false;
  StepContext c = ctx();
  if (need_recover_) {
    if (phase != nullptr) *phase = 1;
    // Recovery (recharge + the 400-cycle boot sequence) is a failable
    // slice of its own: at micro-capacitor envelopes the boot sequence
    // alone can outcost the charge burst and brown out again, which the
    // same watchdog/max_reboots guards as any other brown-out then bound.
    need_recover_ = false;
    if (!recover_from_failure(*dev_, st_)) {
      // Harvester starved; outcome already recorded by recover.
      finish();
      return false;
    }
    if (dev_->browned_out()) return on_brown_out();
    // One kRecovery per successful recharge+reboot, so the event count
    // equals RunStats::reboots — the fuzzer's pairing invariant.
    obs::record(opts_.trace, obs_now_s(*dev_), obs::EventKind::kRecovery);
    need_boot_ = true;
    return true;
  }
  if (need_boot_) {
    // Cursor restores cost FRAM reads, so a boot is a failable slice of
    // its own — and a natural suspension point.
    if (phase != nullptr) *phase = 2;
    attempt_start_cycles_ = dev_->trace().total_cycles();
    obs::record(opts_.trace, obs_now_s(*dev_), obs::EventKind::kBoot, fresh_ ? 1 : 0);
    policy_->on_boot(c, fresh_);
    if (dev_->browned_out()) return on_brown_out();
    dev_->settle_supply();  // slice boundary: close the prepaid window
    fresh_ = false;
    need_boot_ = false;
    return true;
  }
  const bool complete = policy_->step(c);
  if (dev_->browned_out()) return on_brown_out();
  // Slice boundary: settle the prepaid-headroom window so the scheduler
  // (and fill_stats below) sees the true supply state. Settlement
  // cannot fail — over-budget draws already settled inside the slice.
  dev_->settle_supply();
  if (complete) {
    st_.outcome = Outcome::kCompleted;
    finish();
  }
  return !done_;
}

// The slice browned out: the policy returned at its next unit boundary
// with the device latched, having changed nothing since the failing op.
// The boot or slice bookkeeping above was skipped; decide whether the run
// goes on to a recharge and reboot.
bool IntermittentExecutor::on_brown_out() {
  const double attempt_cycles = dev_->trace().total_cycles() - attempt_start_cycles_;
  StepContext c = ctx();
  obs::record(opts_.trace, obs_now_s(*dev_), obs::EventKind::kBrownOut);
  // Livelock watchdog: a power cycle that banked nothing durable
  // (no progress commit, no checkpoint) is futile — the next boot will
  // redo exactly the same work. Enough of those in a row and the run
  // can never finish, so fail loudly instead of spinning to the
  // reboot cap.
  const long banked = st_.progress_commits + st_.checkpoints;
  futile_boots_ = banked > banked_mark_ ? 0 : futile_boots_ + 1;
  banked_mark_ = banked;
  if (futile_boots_ > 0) {
    obs::record(opts_.trace, obs_now_s(*dev_), obs::EventKind::kFutileBoot,
                static_cast<std::int32_t>(futile_boots_));
  }
  if (opts_.max_futile_boots > 0 && futile_boots_ >= opts_.max_futile_boots) {
    st_.livelock = true;  // outcome stays kDidNotFinish
    obs::record(opts_.trace, obs_now_s(*dev_), obs::EventKind::kLivelockTrip,
                static_cast<std::int32_t>(futile_boots_));
    finish();
    return false;
  }
  if (!policy_->retry_after_failure(c, attempt_cycles) ||
      dev_->reboots() - base_.reboots >= opts_.max_reboots) {
    // Outcome stays kDidNotFinish — the Fig. 7b "X".
    finish();
    return false;
  }
  need_recover_ = true;
  return true;
}

RunStats IntermittentExecutor::run(dev::Device& dev, const ace::CompiledModel& cm,
                                   std::span<const fx::q15_t> input,
                                   const RunOptions& opts) {
  start(dev, cm, input, opts);
  while (step()) {
  }
  return take_stats();
}

}  // namespace ehdnn::flex
