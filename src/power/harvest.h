// Harvest-source models: the simulation stand-in for the paper's SIGLENT
// SDG1032X function generator driving an energy harvester (SSIII-D).
//
// A source is just power-versus-time; the capacitor supply integrates it.
// Square/sine profiles mirror what a function generator produces; the
// trace source replays arbitrary harvest recordings (synthetic RF/solar).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace ehdnn::power {

// A reader's lookup state for power_seek: the loop cycle and the sample
// interval its last lookup landed in. Sources are shared read-only (one
// base source serves every fleet worker), so the state a lookup reuses
// lives with the reader, e.g. one per CapacitorSupply.
struct SourceCursor {
  double cycle = 0.0;        // loop quotient of the last lookup
  std::size_t interval = 0;  // upper sample index of the last lookup; 0 = none
};

class HarvestSource {
 public:
  virtual ~HarvestSource() = default;
  // Instantaneous harvested power (watts) at absolute time t (seconds).
  virtual double power_at(double t) const = 0;

  // power_at(t), bit for bit, starting from where `c` says the last
  // lookup was; cheaper when successive t are close. power_at stays the
  // oracle. The default ignores the cursor.
  virtual double power_seek(double t, SourceCursor&) const { return power_at(t); }

  // Piecewise-constant contract: a time no earlier than the next instant
  // strictly after `t` at which power_at may change. Semantics:
  //   * +infinity      — power never changes again (constant source);
  //   * a value  >  t  — power_at is constant on [t, value), up to a few
  //                      ulp of rounding slop at the boundary (the
  //                      integrator hardens candidates with a power_at
  //                      predecessor walk before trusting a segment);
  //   * `t` itself     — opt-out: the source is not piecewise-constant
  //                      (or cannot bound its next change), integrators
  //                      must use their stepped reference path.
  // The default opts out, so continuously-varying sources (sine, linearly
  // interpolated traces) are automatically excluded from the analytic
  // recharge fast path in CapacitorSupply.
  virtual double next_change_s(double t) const { return t; }
};

class ConstantSource : public HarvestSource {
 public:
  explicit ConstantSource(double watts) : watts_(watts) {}
  double power_at(double) const override { return watts_; }
  double next_change_s(double) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  double watts_;
};

class SquareSource : public HarvestSource {
 public:
  SquareSource(double watts_high, double watts_low, double period_s, double duty)
      : hi_(watts_high), lo_(watts_low), period_(period_s), duty_(duty) {
    check(period_ > 0.0 && duty >= 0.0 && duty <= 1.0, "SquareSource: bad parameters");
  }
  double power_at(double t) const override {
    const double phase = std::fmod(t, period_) / period_;
    return phase < duty_ ? hi_ : lo_;
  }

  double next_change_s(double t) const override {
    if (t < 0.0) return t;  // power_at's fmod phase wraps differently there
    // Advance by the residue of the SAME fmod power_at evaluates. Deriving
    // the cycle from floor(t/period) instead can land one cycle ahead of
    // the fmod phase when t/period rounds up across an integer, which
    // would report a boundary a full period late — past a real change.
    // The delta form keeps the candidate within ulps of where power_at
    // actually flips; a delta rounding to <= 0 reads as the opt-out value.
    const double m = std::fmod(t, period_);
    const bool in_hi = m / period_ < duty_;
    return t + (in_hi ? duty_ * period_ - m : period_ - m);
  }

 private:
  double hi_, lo_, period_, duty_;
};

class SineSource : public HarvestSource {
 public:
  SineSource(double mean_watts, double amplitude_watts, double period_s)
      : mean_(mean_watts), amp_(amplitude_watts), period_(period_s) {
    check(period_ > 0.0, "SineSource: bad period");
  }
  double power_at(double t) const override {
    const double v = mean_ + amp_ * std::sin(2.0 * std::numbers::pi * t / period_);
    return v > 0.0 ? v : 0.0;
  }

 private:
  double mean_, amp_, period_;
};

// Bursty RF harvesting: bursts arrive as a Poisson process (exponential
// inter-arrival gaps) with exponentially distributed durations, on top of
// a weak ambient floor. Deterministic: the burst schedule is generated
// from `seed` over `horizon_s` at construction and loops thereafter.
class PoissonBurstSource : public HarvestSource {
 public:
  PoissonBurstSource(double base_w, double burst_w, double rate_hz, double mean_burst_s,
                     std::uint64_t seed = 1, double horizon_s = 10.0)
      : base_(base_w), burst_(burst_w), horizon_(horizon_s) {
    check(base_w >= 0.0 && burst_w >= 0.0 && rate_hz > 0.0 && mean_burst_s > 0.0 &&
              horizon_s > 0.0,
          "PoissonBurstSource: bad parameters");
    Rng rng(seed);
    auto expo = [&rng](double mean) {
      // Inverse-CDF sampling; 1 - uniform() avoids log(0).
      return -mean * std::log(1.0 - rng.uniform());
    };
    double t = expo(1.0 / rate_hz);
    while (t < horizon_) {
      const double dur = expo(mean_burst_s);
      bursts_.push_back({t, std::min(t + dur, horizon_)});
      t += dur + expo(1.0 / rate_hz);
    }
  }

  double power_at(double t) const override {
    double u = std::fmod(t, horizon_);
    if (u < 0.0) u += horizon_;
    // Last burst starting at or before u.
    const auto it = std::upper_bound(bursts_.begin(), bursts_.end(), u,
                                     [](double v, const Burst& b) { return v < b.start; });
    if (it != bursts_.begin() && u < (it - 1)->end) return base_ + burst_;
    return base_;
  }

  double next_change_s(double t) const override {
    if (t < 0.0 || bursts_.empty()) return t;
    double u = std::fmod(t, horizon_);
    if (u < 0.0) u += horizon_;
    const auto it = std::upper_bound(bursts_.begin(), bursts_.end(), u,
                                     [](double v, const Burst& b) { return v < b.start; });
    if (it != bursts_.begin() && u < (it - 1)->end) return t + ((it - 1)->end - u);
    // In a gap: next burst start, wrapping into the next horizon cycle.
    const double next_start =
        it != bursts_.end() ? it->start : horizon_ + bursts_.front().start;
    return t + (next_start - u);
  }

  std::size_t burst_count() const { return bursts_.size(); }

 private:
  struct Burst {
    double start, end;
  };
  double base_, burst_, horizon_;
  std::vector<Burst> bursts_;
};

// Solar-day ramp: a sin^2 daylight arch from sunrise to sunset (fraction
// `daylight` of the day), darkness (plus an optional floor, e.g. indoor
// lighting) the rest of the period.
class SolarDaySource : public HarvestSource {
 public:
  SolarDaySource(double peak_w, double day_s, double daylight = 0.5, double floor_w = 0.0)
      : peak_(peak_w), day_(day_s), daylight_(daylight), floor_(floor_w) {
    check(peak_w >= 0.0 && day_s > 0.0 && daylight > 0.0 && daylight <= 1.0 &&
              floor_w >= 0.0,
          "SolarDaySource: bad parameters");
  }

  double power_at(double t) const override {
    double u = std::fmod(t, day_);
    if (u < 0.0) u += day_;
    const double lit = daylight_ * day_;
    if (u >= lit) return floor_;
    const double s = std::sin(std::numbers::pi * u / lit);
    return floor_ + peak_ * s * s;
  }

  // Constant only during the dark span (and trivially when peak == 0);
  // under the daylight arch the power varies continuously, so opt out.
  double next_change_s(double t) const override {
    if (peak_ == 0.0) return std::numeric_limits<double>::infinity();
    if (t < 0.0) return t;
    double u = std::fmod(t, day_);
    if (u < 0.0) u += day_;
    const double lit = daylight_ * day_;
    if (u < lit) return t;                // daylight: sin^2 ramp
    return t + (day_ - u);                // dark until the next sunrise
  }

 private:
  double peak_, day_, daylight_, floor_;
};

// A time-shifted view of another source: power_at(t) = inner(t + offset).
// The fleet harness hands each simulated device its own offset into one
// shared harvest recording, modelling a population of devices that see
// the same environment out of phase (different desks, different pockets).
// Non-owning: `inner` must outlive the view.
class TimeOffsetSource : public HarvestSource {
 public:
  TimeOffsetSource(const HarvestSource& inner, double offset_s)
      : inner_(inner), offset_(offset_s) {}
  double power_at(double t) const override { return inner_.power_at(t + offset_); }
  double power_seek(double t, SourceCursor& c) const override {
    return inner_.power_seek(t + offset_, c);
  }
  // The inner boundary mapped back through the offset. Both the forward
  // map (t + offset) and the inverse below round, so the candidate can be
  // a few ulp off the exact boundary — within the slop the piecewise
  // contract allows.
  double next_change_s(double t) const override {
    const double inner_next = inner_.next_change_s(t + offset_);
    if (std::isinf(inner_next)) return inner_next;
    if (!(inner_next > t + offset_)) return t;  // inner opted out
    return inner_next - offset_;
  }
  double offset() const { return offset_; }

 private:
  const HarvestSource& inner_;
  double offset_;
};

// Replays `samples` (watts) at fixed `sample_dt` spacing, looping.
class TraceSource : public HarvestSource {
 public:
  TraceSource(std::vector<double> samples, double sample_dt)
      : samples_(std::move(samples)), dt_(sample_dt) {
    check(!samples_.empty() && dt_ > 0.0, "TraceSource: bad trace");
  }
  double power_at(double t) const override {
    const auto idx =
        static_cast<std::size_t>(std::fmod(t / dt_, static_cast<double>(samples_.size())));
    return samples_[idx];
  }

  // Zero-order hold: the replayed power can only change where the sample
  // index increments, i.e. at multiples of dt (including the loop wrap).
  double next_change_s(double t) const override {
    if (t < 0.0) return t;
    return (std::floor(t / dt_) + 1.0) * dt_;
  }

 private:
  std::vector<double> samples_;
  double dt_;
};

}  // namespace ehdnn::power
