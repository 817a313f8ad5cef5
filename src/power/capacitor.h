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
// constant-income segments in closed form (util/ulp_run.h) — bit-for-bit
// identical to the stepped loop — collapsing O(off_time / 50us) work to
// O(segments x binades). Settlement fast-forwards a charge run's
// repetitions the same way while the income segment holds.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "device/power_interface.h"
#include "obs/events.h"
#include "power/harvest.h"
#include "util/ulp_run.h"

namespace ehdnn::power {

namespace detail {

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

  // The reference settlement of one draw (draw() below). consume_batch()
  // reproduces a sequence of these bit for bit; the per-draw loop and
  // consume() are its oracle (recharge_equiv_test, charge_sequence_test).
  bool consume(double joules, double dt) override {
    Chains s = load();
    const bool ok = draw(s, joules, dt);
    store(s, ok);
    return ok;
  }
  // Batch settlement for the device's prepaid-headroom window and its
  // charge runs: single draws per draw, runs through settle_run().
  std::size_t consume_batch(const dev::SpendBatch& b) override {
    Chains s = load();
    std::size_t idx = 0, pos = 0;
    bool ok = true;
    for (std::size_t r = 0; ok && r <= b.runs.size(); ++r) {
      const bool tail = r == b.runs.size();
      const std::size_t end = tail ? b.draws.size() : b.runs[r].at;
      // The inner loop makes no call while the segment holds, so the
      // chains stay in registers there.
      while (ok && pos < end) {
        hold_segment(s);
        do {
          ok = spend(s, b.draws[pos].joules, b.draws[pos].dt);
          if (!ok) break;
          ++pos;
          ++idx;
        } while (pos < end && s.t < s.seg_end);
      }
      if (ok && !tail) ok = settle_run(s, b.runs[r], idx);
    }
    store(s, ok);
    return idx;
  }

  bool prepay_safe() const override { return true; }

  // Headroom shaved by a slack covering worst-case settlement rounding:
  // the device caps windows at 4096 settled draws, each adding at most
  // half an ulp of energy_'s scale (~2^-53 * e_max) of drift, so
  // 1e-11 * e_max over-covers by >20x. Within the budget, replay can never
  // brown out; a run settled in closed form lands on the same values.
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

  // Settlement's running state, hoisted out of the members for a whole
  // batch: the store, the supply clock, the on-time, the income-segment
  // cache and the thresholds. The rare segment recompute makes a virtual
  // power_seek call; keeping the state in locals means that call cannot
  // force per-draw member reloads.
  struct Chains {
    double e, t, on_t, seg_p, seg_end, e_max, e_off;
  };
  [[gnu::always_inline]] Chains load() const {
    return {energy_, now_, on_time_, seg_p_, seg_end_, energy_at(cfg_.v_max),
            energy_at(cfg_.v_off)};
  }
  // A brown-out drains the store into the dying device.
  [[gnu::always_inline]] void store(const Chains& s, bool ok) {
    energy_ = ok ? s.e : std::max(s.e, 0.0);
    now_ = s.t;
    on_time_ = s.on_t;
    if (!ok) {
      on_ = false;
      ++failures_;
    }
  }

  // One draw: harvest income accrues over the window the load draws
  // (integrate_step's arithmetic, at the hardened income-segment cache's
  // power), then the load's energy leaves the store. False when the draw
  // browned out. Forced inline so consume(), the per-op path near
  // brown-out, stays one straight-line body.
  [[gnu::always_inline]] bool draw(Chains& s, double joules, double dt) {
    hold_segment(s);
    return spend(s, joules, dt);
  }
  // Recomputes the segment cache once s.t has reached its end.
  [[gnu::always_inline]] void hold_segment(Chains& s) {
    if (!(s.t < s.seg_end)) {
      now_ = s.t;  // the segment recompute reads the supply clock
      s.seg_p = seg_p_ = source_.power_seek(s.t, cursor_);
      s.seg_end = seg_end_ = hardened_segment_end(s.seg_p);
    }
  }
  // draw() at a clock inside the cached segment.
  [[gnu::always_inline]] static bool spend(Chains& s, double joules, double dt) {
    s.e = std::min(s.e + s.seg_p * dt, s.e_max);
    s.t += dt;
    s.on_t += dt;
    s.e -= joules;
    return !(s.e < s.e_off);
  }

  // A run's reps * n draws, `idx` counting them: whole repetitions in
  // closed form where run_closed_form() applies, the others per draw. A
  // source without constant segments (a linearly interpolated trace)
  // never has t < seg_end here, so its runs settle per draw.
  [[gnu::always_inline]] bool settle_run(Chains& s, const dev::SpendRun& r,
                                         std::size_t& idx) {
    std::size_t left = r.reps;
    while (left > 0) {
      if (s.t < s.seg_end) {
        const Advance a = run_closed_form(s, r, left);
        if (a.reps > 0) {
          s.e = a.e;
          s.t = a.t;
          s.on_t = a.on_t;
          left -= a.reps;
          idx += a.reps * r.n;
          continue;
        }
      }
      for (std::size_t i = 0; i < r.n; ++i, ++idx) {
        if (!draw(s, r.steps[i].joules, r.steps[i].dt)) return false;
      }
      --left;
    }
    return true;
  }

  // Settles up to `left` whole repetitions of `r` in closed form on the
  // three chains draw() advances: the store, which each draw moves by
  // + p_i (the same seg_p * dt_i product draw() rounds) and then - j_i;
  // the clock; and the on-time. It applies only while every draw stays in
  // the cached segment (t < seg_end), the v_max clamp cannot engage
  // (e < e_max) and no draw takes the store below e_off, so each draw is
  // draw()'s and none fails. Returns the repetitions settled (0 when the
  // closed form does not reach one) and the chains after them. Out of
  // line and by value, so the per-draw loops keep the chains in
  // registers.
  struct Advance {
    std::size_t reps = 0;
    double e = 0.0, t = 0.0, on_t = 0.0;
  };
  [[gnu::noinline]] Advance run_closed_form(const Chains s, const dev::SpendRun& r,
                                            std::size_t left) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    RunForm& f = form_;
    if (!(f.seg_p == s.seg_p && same_steps(f.run, r) && f.e.rebase(s.e) &&
          f.t.rebase(s.t) && f.on.rebase(s.on_t))) {
      double de[2 * dev::SpendRun::kMaxSteps];
      double dt[dev::SpendRun::kMaxSteps];
      for (std::size_t i = 0; i < r.n; ++i) {
        dt[i] = r.steps[i].dt;
        de[2 * i] = s.seg_p * dt[i];
        de[2 * i + 1] = -r.steps[i].joules;
      }
      f.run = r;
      f.seg_p = s.seg_p;
      f.e = UlpRun(s.e, de, 2 * r.n);
      f.t = UlpRun(s.t, dt, r.n);
      f.on = UlpRun(s.on_t, dt, r.n);
    }
    long long k = f.e.reps_within(s.e_off, s.e_max, static_cast<long long>(left));
    k = f.t.reps_within(-inf, s.seg_end, k);
    k = f.on.reps_within(-inf, inf, k);
    if (k == 0) return {};
    return {static_cast<std::size_t>(k), f.e.after(k), f.t.after(k), f.on.after(k)};
  }

  static bool same_steps(const dev::SpendRun& a, const dev::SpendRun& b) {
    if (a.n != b.n) return false;
    for (std::size_t i = 0; i < a.n; ++i) {
      if (a.steps[i].joules != b.steps[i].joules || a.steps[i].dt != b.steps[i].dt) {
        return false;
      }
    }
    return true;
  }

  // The one reference integration step both off-time loops and idle
  // parking share, and draw() repeats per draw: income accrues at the
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
  // (energy, now) step chains in lockstep (UlpRun) while the energy stays
  // below v_on and the clamp, and the clock below the starvation
  // threshold and the segment end. Bit-exact vs the stepped loop; any
  // step the closed form cannot cover exactly (binade crossing, rounding
  // tie, the step that ends the stretch, an opted-out source) is a
  // literal reference step.
  void recharge_analytic(double t0, double e_on) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double step = cfg_.recharge_step_s;
    const double e_max = energy_at(cfg_.v_max);
    const double starve_at = detail::threshold_diff_ge(t0, cfg_.max_off_s);
    for (;;) {
      if (!(energy_ < e_on)) return;
      if (now_ - t0 >= cfg_.max_off_s) {
        starved_ = true;
        return;
      }
      const double income = segment_power() * step;
      if (!(seg_end_ > now_)) {
        integrate_step(step);
        continue;
      }
      const UlpRun se(energy_, &income, 1);
      const UlpRun sn(now_, &step, 1);
      long long n = se.reps_within(-inf, std::min(e_on, e_max));
      n = sn.reps_within(-inf, std::min(starve_at, seg_end_), n);
      if (n <= 0 || n == UlpRun::kUnbounded) {
        integrate_step(step);
        continue;
      }
      energy_ = se.after(n);
      now_ = sn.after(n);
    }
  }

  // Closed-form idle parking. Adds a third lockstep chain for the
  // idle_time_ accumulator (the reference loop adds `step` to it each
  // iteration, so its rounding trajectory must be reproduced too) and the
  // final-partial-step boundary of min(step, t_s - now_).
  void idle_analytic(double t_s) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double step = cfg_.recharge_step_s;
    const double e_max = energy_at(cfg_.v_max);
    const double partial_at = detail::threshold_partial(t_s, step);
    while (now_ < t_s) {
      if (energy_ >= e_max) {
        idle_time_ += t_s - now_;  // full store: income can no longer land
        now_ = t_s;
        return;
      }
      const double income = segment_power() * step;
      if (seg_end_ > now_) {
        const UlpRun se(energy_, &income, 1);
        const UlpRun sn(now_, &step, 1);
        const UlpRun si(idle_time_, &step, 1);
        long long n = se.reps_within(-inf, e_max);  // no clamp; the full-store exit untaken
        n = sn.reps_within(-inf, std::min(partial_at, seg_end_), n);
        n = si.reps_within(-inf, inf, n);
        if (n > 0 && n != UlpRun::kUnbounded) {
          energy_ = se.after(n);
          now_ = sn.after(n);
          idle_time_ = si.after(n);
          continue;
        }
      }
      // One literal reference iteration (handles the partial final step,
      // clamping, ties and binade crossings exactly).
      const double dt = std::min(step, t_s - now_);
      integrate_step(dt);
      idle_time_ += dt;
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
  // The last run's closed form (run_closed_form). Its chains' addends in
  // ulps depend only on the run's draws, the segment's power and each
  // chain's binade, so the next run reuses them when all three match.
  struct RunForm {
    dev::SpendRun run;  // its draws; reps and at are not read
    double seg_p = std::numeric_limits<double>::quiet_NaN();
    UlpRun e, t, on;
  };
  RunForm form_;
};

}  // namespace ehdnn::power
