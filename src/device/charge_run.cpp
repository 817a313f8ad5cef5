// Device::charge_run, the charge runs of the scalar CPU runtimes (see
// device.h). In a translation unit of its own: the hot per-op paths in
// device.cpp keep their inlining.

#include <algorithm>

#include "device/device.h"

namespace ehdnn::dev {

const SpendEvent* Device::run_events(const ChargePattern& p) {
  if (run_pattern_ != p) {
    const std::span<const FixedOpCost> steps = p.steps();
    run_events_.clear();
    for (std::size_t r = 0; r < kRunChunkReps; ++r) {
      for (const FixedOpCost& c : steps) run_events_.push_back({c.joules, c.dt});
    }
    run_pattern_ = p;
  }
  return run_events_.data();
}

std::size_t Device::charge_run(const ChargePattern& p, std::size_t reps) {
  if (!bulk_enabled_ || browned_out_ || reps == 0) return 0;
  const std::span<const FixedOpCost> steps = p.steps();
  if (prepaid_open_) {
    // Each draw must pass spend_fixed()'s inline test: within the budget left
    // after the draws before it (the per-op sequence of subtractions), and
    // under the event cap.
    const std::size_t n = steps.size();
    const std::size_t room = kPrepaidMaxEvents - prepaid_.size();
    const std::size_t cap = reps * n <= room ? reps : room / n;
    double budget = prepaid_budget_;
    std::size_t done = 0;
    for (; done < cap; ++done) {
      double left = budget;
      bool fits = true;
      for (const FixedOpCost& c : steps) {
        fits &= c.joules <= left;
        left -= c.joules;
      }
      if (!fits) break;
      budget = left;
    }
    if (done == 0) return 0;
    prepaid_budget_ = budget;
    trace_.add_repeated(steps, done);
    const SpendEvent* ev = run_events(p);
    for (std::size_t left = done; left > 0;) {
      const std::size_t k = std::min(left, kRunChunkReps);
      prepaid_.insert(prepaid_.end(), ev, ev + k * n);
      left -= k;
    }
    return done;
  }
  if (supply_ == nullptr) {
    trace_.add_repeated(steps, reps);
    return reps;
  }
  // Past this point an op's draw would arm a window (prepay_safe) or be
  // consumed alone and might brown out (fallible): the caller's per-op
  // loop decides.
  if (prepay_supported_ || !infallible_) return 0;
  const SpendEvent* ev = run_events(p);
  for (std::size_t left = reps; left > 0;) {
    const std::size_t k = std::min(left, kRunChunkReps);
    trace_.add_repeated(steps, k);
    const std::size_t n = k * steps.size();
    if (supply_->consume_batch(ev, n) != n) {
      fail("charge run: an infallible supply refused a draw");
    }
    left -= k;
  }
  return reps;
}

}  // namespace ehdnn::dev
