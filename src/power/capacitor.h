// Capacitor-buffered energy-harvesting supply (the paper's 100 uF buffer).
//
// The device operates while the capacitor voltage stays above v_off; it
// boots (or re-boots) once harvesting has refilled the capacitor to v_on.
// The usable burst energy is E = C/2 (v_on^2 - v_off^2) — about 0.30 mJ
// with the defaults — which is what makes DNN inference intermittent:
// a whole inference needs orders of magnitude more.
//
// Off-time and idle-time integration is defined by a 50 us stepped
// reference loop (integrate_step). For piecewise-constant harvest sources
// (HarvestSource::next_change_s) the supply fast-forwards whole
// constant-income segments in closed form — bit-for-bit identical to the
// stepped loop (see the binade fast-forward notes below) — collapsing
// O(off_time / 50us) work to O(segments x binades).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "device/power_interface.h"
#include "obs/events.h"
#include "power/harvest.h"

namespace ehdnn::power {

namespace detail {

// ---- exact fast-forward of the stepped integrator ----------------------
//
// The reference loop repeatedly applies x -> fl(x + d) with d constant
// while an income segment holds (d = P * step). Under round-to-nearest-
// even, while x stays inside one power-of-two binade the update has a
// closed form: fl(x + d) = x + q, where q is d rounded to the binade's
// ulp grid — independent of x, EXCEPT when d falls exactly on a half-ulp
// tie (nearest-even then depends on the running mantissa parity; the tie
// is detected and the caller falls back to literal stepping). Working in
// integer ulp units, n steps advance x by exactly n*q, so a whole segment
// collapses to a handful of integer ops per binade while reproducing the
// reference loop bit for bit.
struct UlpSeq {
  double ulp = 0.0;       // grid spacing of x's binade
  long long x = 0;        // current value, in ulp units (exact)
  long long q = 0;        // per-step increment, in ulp units (exact)
  bool pure = false;      // false: tie/degenerate — take literal steps
};

inline constexpr long long kSeqInf = std::numeric_limits<long long>::max();
inline constexpr double kBinadeTop = 9007199254740992.0;  // 2^53

inline UlpSeq seq_of(double x, double d) {
  UlpSeq s;
  if (!(x > 0.0) || !std::isfinite(x) || !(d >= 0.0) || !std::isfinite(d)) return s;
  int ex = 0;
  std::frexp(x, &ex);
  if (ex < -1000 || ex > 1000) return s;  // denormal/extreme: literal steps
  s.ulp = std::ldexp(1.0, ex - 53);
  const double r = d / s.ulp;  // exact: ulp is a power of two
  if (!(r < 4.5e15)) return s;
  const double k = std::floor(r);
  const double f = r - k;  // exact
  if (f == 0.5) return s;  // half-ulp tie: rounding is parity-dependent
  s.x = static_cast<long long>(x / s.ulp);
  s.q = static_cast<long long>(f < 0.5 ? k : k + 1.0);
  s.pure = true;
  return s;
}

// Value after n in-binade steps. Exact: x + n*q <= 2^53 (caller-capped),
// and (integer <= 2^53) * (power of two) is exactly representable.
inline double seq_value(const UlpSeq& s, long long n) {
  return static_cast<double>(s.x + n * s.q) * s.ulp;
}

// Steps that provably stay in closed form: results up to the binade top
// (2^53 ulps) round on the same grid.
inline long long seq_cap(const UlpSeq& s) {
  const long long top = static_cast<long long>(kBinadeTop);
  return s.q > 0 ? (top - s.x) / s.q : kSeqInf;
}

// Smallest n with value_n >= limit (the loop-exit count for a
// `while (x < limit)` condition); kSeqInf if unreachable in this binade.
inline long long seq_stop_at(const UlpSeq& s, double limit) {
  const double ld = limit / s.ulp;  // exact power-of-two divide
  if (!(ld <= kBinadeTop)) return kSeqInf;  // beyond the binade (or inf)
  const long long lc = static_cast<long long>(std::ceil(ld));
  if (s.x >= lc) return 0;
  return s.q > 0 ? (lc - s.x + s.q - 1) / s.q : kSeqInf;
}

// Largest n with every step result <= limit (clamp must not engage inside
// a chunk); kSeqInf when the limit lies beyond this binade.
inline long long seq_pure_below(const UlpSeq& s, double limit) {
  const double ld = limit / s.ulp;
  if (!(ld <= kBinadeTop)) return kSeqInf;
  const long long lf = static_cast<long long>(std::floor(ld));
  if (lf < s.x) return 0;
  return s.q > 0 ? (lf - s.x) / s.q : kSeqInf;
}

// Smallest double y with fl(y - t0) >= delta — turns the reference loop's
// per-step `now_ - t0 >= delta` test into a plain threshold on now_.
inline double threshold_diff_ge(double t0, double delta) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  double y = t0 + delta;
  if (y - t0 >= delta) {
    for (;;) {
      const double p = std::nextafter(y, -inf);
      if (!(p - t0 >= delta)) break;
      y = p;
    }
  } else {
    do {
      y = std::nextafter(y, inf);
    } while (!(y - t0 >= delta));
  }
  return y;
}

// Smallest double y with fl(t_s - y) < step — the boundary past which
// idle_until's min(step, t_s - now_) switches to the final partial step.
inline double threshold_partial(double t_s, double step) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  double y = t_s - step;
  if (t_s - y < step) {
    for (;;) {
      const double p = std::nextafter(y, -inf);
      if (!(t_s - p < step)) break;
      y = p;
    }
  } else {
    do {
      y = std::nextafter(y, inf);
    } while (!(t_s - y < step));
  }
  return y;
}

}  // namespace detail

// The smallest capacitance a config, scenario or contract world may ask
// for: 1 nF, below any real storage element (the smallest committed
// capacitor is 50 nF). A femtofarad "capacitor" would only make every
// draw a brown-out.
constexpr double kMinCapacitanceF = 1e-9;

struct CapacitorConfig {
  double capacitance_f = 100e-6;  // the paper's 100 uF
  double v_on = 3.3;              // boot threshold
  double v_off = 2.2;             // brown-out threshold
  double v_max = 3.6;             // harvester regulator clamp
  double recharge_step_s = 50e-6; // off-time integration step
  double max_off_s = 3600.0;      // starvation guard
  // Closed-form segment fast-forward for piecewise-constant sources
  // (bit-exact vs the stepped loop). Off = always step 50 us at a time:
  // the reference path the equivalence tests compare against.
  bool analytic_recharge = true;
};

class CapacitorSupply : public dev::PowerSupply {
 public:
  CapacitorSupply(const HarvestSource& source, CapacitorConfig cfg = {})
      : source_(source), cfg_(cfg) {
    energy_ = energy_at(cfg_.v_on);  // starts charged to the boot threshold
  }

  bool consume(double joules, double dt) override {
    const dev::SpendEvent ev{joules, dt};
    return settle(&ev, 1) == 1;
  }
  // Batch settlement for the device's prepaid-headroom window: the same
  // per-event arithmetic as consume(), which settles through the same
  // body.
  std::size_t consume_batch(const dev::SpendEvent* ev, std::size_t n) override {
    return settle(ev, n);
  }

  bool prepay_safe() const override { return true; }

  // Headroom shaved by a slack covering worst-case settlement rounding:
  // the device caps windows at 4096 events, each adding at most half an
  // ulp of energy_'s scale (~2^-53 * e_max) of drift, so 1e-11 * e_max
  // over-covers by >20x. Within the budget, replay can never brown out.
  double prepaid_budget() const override {
    return std::max(0.0, headroom() - 1e-11 * energy_at(cfg_.v_max));
  }

  double voltage() const override {
    return std::sqrt(2.0 * energy_ / cfg_.capacitance_f);
  }

  double headroom() const override {
    return std::max(0.0, energy_ - energy_at(cfg_.v_off));
  }

  bool on() const override { return on_; }

  // Integrates harvest income until v_on or the max_off_s starvation
  // guard. Starvation is not an exception: the supply reports it through
  // starved() so runtimes can surface a distinct RunStats outcome
  // (starved vs completed) instead of dying mid-run.
  double recharge_to_on() override {
    const double t0 = now_;
    starved_ = false;
    const double e_on = energy_at(cfg_.v_on);
    if (cfg_.analytic_recharge) {
      recharge_analytic(t0, e_on);
    } else {
      while (energy_ < e_on) {
        if (now_ - t0 >= cfg_.max_off_s) {
          starved_ = true;
          break;
        }
        integrate_step(cfg_.recharge_step_s);
      }
    }
    on_ = !starved_;
    const double off = now_ - t0;
    off_time_ += off;
    return off;
  }

  bool starved() const override { return starved_; }

  // Duty-cycle sleep: income keeps integrating (clamped at v_max) while
  // the device draws nothing. Unlike recharge_to_on this is not an
  // outage — on/off/starved states are untouched and no off-time accrues.
  // The final step is partial so the device wakes exactly at t_s (job
  // release instants stay exact in the fleet's timing records).
  void idle_until(double t_s) override {
    idle_impl(t_s);
    // One kIdle at the wake instant — the supply-level witness that the
    // park fast-forward ran (the agenda's kPark records the decision).
    obs::record(obs_trace_, now_, obs::EventKind::kIdle);
  }

  // Per-device lifecycle-event sink (non-owning, may be null). The supply
  // is the only layer that can witness idle fast-forwards, so the obs
  // hook lives here rather than in the runtimes.
  void set_trace(obs::EventTrace* t) { obs_trace_ = t; }

 private:
  void idle_impl(double t_s) {
    if (cfg_.analytic_recharge) {
      idle_analytic(t_s);
      return;
    }
    const double e_max = energy_at(cfg_.v_max);
    while (now_ < t_s) {
      if (energy_ >= e_max) {
        // Full capacitor: harvest income is non-negative by construction
        // (every HarvestSource clamps at zero) and the regulator caps the
        // store at v_max, so the energy cannot change for the rest of the
        // park — fast-forward to the wake instant instead of integrating
        // 50 us at a time. This is what makes multi-second parks O(1) for
        // the fleet engine's duty-cycled populations.
        idle_time_ += t_s - now_;
        now_ = t_s;
        break;
      }
      const double dt = std::min(cfg_.recharge_step_s, t_s - now_);
      integrate_step(dt);
      idle_time_ += dt;
    }
  }

 public:
  double now() const override { return now_; }

  long failures() const { return failures_; }
  double on_time() const { return on_time_; }
  double off_time() const { return off_time_; }
  double idle_time() const { return idle_time_; }

  // Usable per-burst energy between the thresholds.
  double burst_energy() const { return energy_at(cfg_.v_on) - energy_at(cfg_.v_off); }

  const CapacitorConfig& config() const { return cfg_; }

 private:
  double energy_at(double v) const { return 0.5 * cfg_.capacitance_f * v * v; }

  // Settles n draws in order; returns the index of the one that browned
  // out, or n. Per draw: harvest income accrues over the window the load
  // draws (integrate_step's arithmetic, at the hardened income-segment
  // cache's power), then the load's energy leaves the store. Members are
  // hoisted into locals for the whole batch: the rare segment recompute
  // makes a virtual power_seek call, and keeping the running state in
  // registers means that call cannot force per-event member reloads.
  // Forced inline so consume(), the per-op path near brown-out, stays one
  // straight-line body.
  [[gnu::always_inline]] std::size_t settle(const dev::SpendEvent* ev, std::size_t n) {
    const double e_max = energy_at(cfg_.v_max);
    const double e_off = energy_at(cfg_.v_off);
    double e = energy_, t = now_, on_t = on_time_;
    double seg_p = seg_p_, seg_end = seg_end_;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(t < seg_end)) {
        now_ = t;  // the segment recompute reads the supply clock
        seg_p = seg_p_ = source_.power_seek(t, cursor_);
        seg_end = seg_end_ = hardened_segment_end(seg_p);
      }
      e = std::min(e + seg_p * ev[i].dt, e_max);
      t += ev[i].dt;
      on_t += ev[i].dt;
      e -= ev[i].joules;
      if (e < e_off) {
        energy_ = std::max(e, 0.0);
        now_ = t;
        on_time_ = on_t;
        on_ = false;
        ++failures_;
        return i;
      }
    }
    energy_ = e;
    now_ = t;
    on_time_ = on_t;
    return n;
  }

  // The one reference integration step both off-time loops and idle
  // parking share, and settle() repeats per draw: income accrues at the
  // instantaneous power over dt, the regulator clamps the store at v_max,
  // time advances. The analytic fast paths reproduce chains of these bit
  // for bit.
  void integrate_step(double dt) {
    energy_ = std::min(energy_ + segment_power() * dt, energy_at(cfg_.v_max));
    now_ += dt;
  }

  // The harvest power at now_, served from a cached hardened segment.
  // now_ is monotone across every supply operation, so the cache is
  // exactly the source's power until now_ crosses seg_end_ — at which
  // point the segment (and its end) is recomputed. Opt-out sources leave
  // seg_end_ <= now_, degrading to a power_at query per call, identical
  // to the uncached reference behavior.
  double segment_power() {
    if (!(now_ < seg_end_)) {
      seg_p_ = source_.power_seek(now_, cursor_);
      seg_end_ = hardened_segment_end(seg_p_);
    }
    return seg_p_;
  }

  // Harden a source's segment-end candidate into an end the cache can
  // trust: the exact first double at which power_at differs from the
  // current segment's power. The candidate from next_change_s carries
  // rounding slop (for an offset view, roughly ulp(t+offset)/ulp(t) of
  // outer-time ulps — possibly hundreds), so instead of trusting it
  // directly we bisect: sources change power at isolated boundaries
  // separated by far more than that slop, so [now_, candidate] brackets
  // at most the one flip and power_at is a clean one-sided threshold over
  // it. When even power_at(candidate) still shows the segment's power the
  // flip lies in the slop just past the candidate; the candidate itself
  // is then a valid (if slightly conservative) end. Returns a value
  // <= now_ only for opted-out sources (callers then take literal
  // reference steps).
  double hardened_segment_end(double p_now) const {
    const double c = source_.next_change_s(now_);
    if (std::isinf(c)) return c;
    if (!(c > now_)) return now_;
    if (source_.power_at(c) == p_now) return c;
    double lo = now_, hi = c;  // power_at(lo) == p_now, power_at(hi) != p_now
    for (;;) {
      const double mid = lo + (hi - lo) / 2.0;
      if (!(mid > lo) || !(mid < hi)) return hi;
      (source_.power_at(mid) == p_now ? lo : hi) = mid;
    }
  }

  // Closed-form recharge: per constant-income segment, fast-forward the
  // (energy, now) step sequences in lockstep until the first of: v_on
  // reached, starvation threshold hit, or segment end. Bit-exact vs the
  // stepped loop; any case the closed form cannot cover exactly (binade
  // crossing, rounding tie, opted-out source) falls back to literal
  // reference steps.
  void recharge_analytic(double t0, double e_on) {
    const double step = cfg_.recharge_step_s;
    const double e_max = energy_at(cfg_.v_max);
    const double starve_at = detail::threshold_diff_ge(t0, cfg_.max_off_s);
    for (;;) {
      if (!(energy_ < e_on)) return;
      if (now_ - t0 >= cfg_.max_off_s) {
        starved_ = true;
        return;
      }
      const double p = segment_power();
      const double seg = seg_end_;
      if (!(seg > now_)) {
        integrate_step(step);
        continue;
      }
      const detail::UlpSeq se = detail::seq_of(energy_, p * step);
      const detail::UlpSeq sn = detail::seq_of(now_, step);
      if (!se.pure || !sn.pure) {
        integrate_step(step);
        continue;
      }
      long long n = detail::seq_cap(se);
      n = std::min(n, detail::seq_cap(sn));
      n = std::min(n, detail::seq_pure_below(se, e_max));  // no clamp mid-chunk
      n = std::min(n, detail::seq_stop_at(se, e_on));
      n = std::min(n, detail::seq_stop_at(sn, starve_at));
      n = std::min(n, detail::seq_stop_at(sn, seg));  // power holds while now < seg
      if (n <= 0 || n == detail::kSeqInf) {
        integrate_step(step);
        continue;
      }
      energy_ = detail::seq_value(se, n);
      now_ = detail::seq_value(sn, n);
    }
  }

  // Closed-form idle parking. Adds a third lockstep sequence for the
  // idle_time_ accumulator (the reference loop adds `step` to it each
  // iteration, so its rounding trajectory must be reproduced too) and the
  // final-partial-step boundary of min(step, t_s - now_).
  void idle_analytic(double t_s) {
    const double step = cfg_.recharge_step_s;
    const double e_max = energy_at(cfg_.v_max);
    const double partial_at = detail::threshold_partial(t_s, step);
    while (now_ < t_s) {
      if (energy_ >= e_max) {
        idle_time_ += t_s - now_;  // full store: income can no longer land
        now_ = t_s;
        return;
      }
      const double p = segment_power();
      const double seg = seg_end_;
      const detail::UlpSeq se = detail::seq_of(energy_, p * step);
      const detail::UlpSeq sn = detail::seq_of(now_, step);
      const detail::UlpSeq si = detail::seq_of(idle_time_, step);
      long long n = 0;
      if (seg > now_ && se.pure && sn.pure && si.pure) {
        n = detail::seq_cap(se);
        n = std::min(n, detail::seq_cap(sn));
        n = std::min(n, detail::seq_cap(si));
        n = std::min(n, detail::seq_pure_below(se, e_max));
        n = std::min(n, detail::seq_stop_at(se, e_max));  // bulk path check
        n = std::min(n, detail::seq_stop_at(sn, partial_at));
        n = std::min(n, detail::seq_stop_at(sn, seg));
      }
      if (n <= 0 || n == detail::kSeqInf) {
        // One literal reference iteration (handles the partial final
        // step, clamping, ties and binade crossings exactly).
        const double dt = std::min(step, t_s - now_);
        integrate_step(dt);
        idle_time_ += dt;
        continue;
      }
      energy_ = detail::seq_value(se, n);
      now_ = detail::seq_value(sn, n);
      idle_time_ = detail::seq_value(si, n);
    }
  }

  const HarvestSource& source_;
  CapacitorConfig cfg_;
  double energy_ = 0.0;
  double now_ = 0.0;
  // Hardened income-segment cache (segment_power): the source's power is
  // seg_p_ for every instant in [t_computed, seg_end_), and now_ never
  // goes backward, so staleness is impossible.
  double seg_p_ = 0.0;
  double seg_end_ = -std::numeric_limits<double>::infinity();
  // This supply's lookup state in the (possibly shared) source.
  SourceCursor cursor_;
  bool on_ = true;
  bool starved_ = false;
  long failures_ = 0;
  double on_time_ = 0.0;
  double off_time_ = 0.0;
  double idle_time_ = 0.0;
  obs::EventTrace* obs_trace_ = nullptr;  // lifecycle-event sink (may be null)
};

}  // namespace ehdnn::power
