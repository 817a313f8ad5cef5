// Device::charge_run, the charge runs of the scalar CPU runtimes and the
// conv kernels (see device.h). In a translation unit of its own: the hot
// per-op paths in device.cpp keep their inlining.

#include "device/device.h"

namespace ehdnn::dev {

std::size_t Device::charge_run(const ChargePattern& p, std::size_t reps) {
  if (!bulk_enabled_ || browned_out_ || reps == 0) return 0;
  const std::span<const FixedOpCost> steps = p.steps();
  const std::size_t n = steps.size();
  if (prepaid_open_) {
    // Each draw must pass spend_fixed()'s inline test: within the budget left
    // after the draws before it (the per-op sequence of subtractions), and
    // under the event cap.
    const std::size_t room = prepaid_cap_ - prepaid_.size();
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
    prepaid_runs_.push_back(p.run(done, prepaid_.size()));
    prepaid_cap_ -= done * n;
    reps = done;
  } else if (supply_ != nullptr) {
    // Past this point an op's draw would arm a window (prepay_safe) or be
    // consumed alone and might brown out (no ledger): the caller's per-op
    // loop decides. Against a ledger each draw is one add to its sums.
    if (prepay_supported_ || ledger_ == nullptr) return 0;
    trace_.add_repeated(steps, reps, *ledger_);
    return reps;
  }
  // In a window the run is settled later; bench power (no supply)
  // charges the trace only.
  trace_.add_repeated(steps, reps);
  return reps;
}

}  // namespace ehdnn::dev
