#include "sched/forecast.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>

#include "util/check.h"
#include "util/spec.h"

namespace ehdnn::sched {

namespace {

class EmaForecaster : public HarvestForecaster {
 public:
  EmaForecaster(double prior_w, double alpha) : prior_(prior_w), alpha_(alpha), est_(prior_w) {
    check(prior_w >= 0.0 && alpha > 0.0 && alpha <= 1.0, "ema forecaster: bad parameters");
  }

  std::string name() const override { return "ema"; }

  void record(double income_w) override {
    est_ = (1.0 - alpha_) * est_ + alpha_ * income_w;
    ++samples_;
  }

  double forecast_w() const override { return est_; }
  long samples() const override { return samples_; }

  void reset() override {
    est_ = prior_;
    samples_ = 0;
  }

 private:
  double prior_, alpha_, est_;
  long samples_ = 0;
};

class WindowForecaster : public HarvestForecaster {
 public:
  WindowForecaster(double prior_w, std::size_t n) : prior_(prior_w), n_(n) {
    check(prior_w >= 0.0 && n > 0, "window forecaster: bad parameters");
  }

  std::string name() const override { return "window"; }

  void record(double income_w) override {
    if (window_.size() < n_) {
      window_.push_back(income_w);
    } else {
      window_[static_cast<std::size_t>(samples_) % n_] = income_w;
    }
    ++samples_;
  }

  double forecast_w() const override {
    if (window_.empty()) return prior_;
    return std::accumulate(window_.begin(), window_.end(), 0.0) /
           static_cast<double>(window_.size());
  }

  long samples() const override { return samples_; }

  void reset() override {
    window_.clear();
    samples_ = 0;
  }

 private:
  double prior_;
  std::size_t n_;
  std::vector<double> window_;
  long samples_ = 0;
};

class ConstForecaster : public HarvestForecaster {
 public:
  explicit ConstForecaster(double w) : w_(w) {
    check(w >= 0.0, "const forecaster: bad parameter");
  }

  std::string name() const override { return "const"; }
  void record(double) override { ++samples_; }
  double forecast_w() const override { return w_; }
  long samples() const override { return samples_; }
  void reset() override { samples_ = 0; }

 private:
  double w_;
  long samples_ = 0;
};

// Autocorrelation-based periodicity detection over the income history.
//
// Square/solar harvesters deliver income the smoothing forecasters can
// only average away: the recharge-gap samples swing hi/lo with the source
// phase, and an EMA forever lags the swing — worse, it goes silently
// stale whenever the device idles or parks through a phase transition
// (no reboots, no samples). This forecaster keeps a TIMESTAMPED history,
// resamples it onto a uniform grid (zero-order hold), runs a normalized
// autocorrelation over candidate lags after every record, and once a lag
// is confirmed (correlation >= confidence, >= 3 periods of history,
// harmonics resolved toward the shortest lag) predicts from a
// phase-indexed income table: per-phase means with phase = t mod period.
// forecast_at_w(t) therefore answers "what will the harvester deliver at
// THAT instant" — including instants no sample ever covered, which is
// what deadline admission needs after sleeping through a solar dawn. The
// lock is re-evaluated on every sample and silently degrades back to the
// EMA when the source stops being periodic.
class PeriodicForecaster : public HarvestForecaster {
 public:
  PeriodicForecaster(double prior_w, double alpha, std::size_t bins, double confidence)
      : prior_(prior_w), alpha_(alpha), bins_(bins), conf_(confidence), est_(prior_w) {
    check(prior_w >= 0.0 && alpha > 0.0 && alpha <= 1.0 && bins >= 2 && bins <= 1024 &&
              confidence > 0.0 && confidence <= 1.0,
          "periodic forecaster: bad parameters");
  }

  std::string name() const override { return "periodic"; }

  // Untimed samples are placed at unit spacing, so a plain record()
  // stream still gets sample-sequence periodicity detection.
  void record(double income_w) override {
    record_at(income_w, history_.empty() ? 0.0 : history_.back().t + 1.0);
  }

  void record_at(double income_w, double t_s) override {
    est_ = (1.0 - alpha_) * est_ + alpha_ * income_w;
    // Time must be monotone for the grid resampling; a regressing clock
    // (should not happen — supply time only advances) clamps forward.
    if (!history_.empty() && t_s < history_.back().t) t_s = history_.back().t;
    history_.push_back({t_s, income_w});
    if (history_.size() > kMaxHistory) history_.pop_front();
    ++samples_;
    // Detection is amortized: the autocorrelation + dispersion pass over
    // the history is O(thousands) of flops, and a reboot-storm device
    // (a micro-cap SONIC grind) records tens of thousands of samples.
    // Re-deriving every kDetectEvery-th sample delays a lock by at most
    // 7 samples out of the >= 3 periods one needs anyway.
    if (samples_ % kDetectEvery == 0 || history_.size() == 8) detect();
  }

  double forecast_w() const override {
    if (period_s_ <= 0.0) return est_;
    return forecast_at_w(history_.back().t);
  }

  double forecast_at_w(double t_s) const override {
    if (period_s_ <= 0.0) return est_;
    double phase = std::fmod(t_s, period_s_) / period_s_;
    if (phase < 0.0) phase += 1.0;
    std::size_t b = static_cast<std::size_t>(phase * static_cast<double>(table_.size()));
    if (b >= table_.size()) b = table_.size() - 1;
    return table_[b];
  }

  double period_s() const override { return period_s_; }
  long samples() const override { return samples_; }

  void reset() override {
    est_ = prior_;
    history_.clear();
    table_.clear();
    period_s_ = 0.0;
    samples_ = 0;
  }

 private:
  struct Sample {
    double t, w;
  };
  static constexpr std::size_t kMaxHistory = 512;
  static constexpr std::size_t kGrid = 96;  // resampling resolution
  static constexpr long kDetectEvery = 8;   // detection amortization

  void detect() {
    if (history_.size() < 8) {
      period_s_ = 0.0;
      return;
    }
    const double t0 = history_.front().t;
    const double span = history_.back().t - t0;
    if (span <= 0.0) {
      period_s_ = 0.0;
      return;
    }

    // A held lock is re-validated (and drift-refined) by dispersion
    // rather than re-derived from scratch: the grid gate below quantizes
    // lags to span/kGrid, so as the span grows a true period drifts in
    // and out of grid alignment — the fold quality of the period itself
    // is the stable signal.
    if (period_s_ > 0.0) {
      const double hist_mean = mean_of_history();
      const double hist_var = var_of_history(hist_mean);
      double best_p = 0.0;
      double best_d = std::numeric_limits<double>::infinity();
      for (const double e : {-0.02, -0.01, 0.0, 0.01, 0.02}) {
        const double p = period_s_ * (1.0 + e);
        const double d = phase_dispersion(p, hist_var);
        if (d < best_d) {
          best_d = d;
          best_p = p;
        }
      }
      if (best_d <= 1.0 - conf_) {
        period_s_ = best_p;
        build_table(best_p, hist_mean);
        return;
      }
      period_s_ = 0.0;  // the source stopped folding cleanly: re-derive
    }

    // Zero-order-hold resample onto a uniform grid (income history is
    // gap-spaced, autocorrelation wants even spacing).
    double grid[kGrid];
    std::size_t h = 0;
    for (std::size_t i = 0; i < kGrid; ++i) {
      const double t = t0 + span * static_cast<double>(i) / static_cast<double>(kGrid);
      while (h + 1 < history_.size() && history_[h + 1].t <= t) ++h;
      grid[i] = history_[h].w;
    }
    double mean = 0.0;
    for (double x : grid) mean += x;
    mean /= static_cast<double>(kGrid);
    double var = 0.0;
    for (double x : grid) var += (x - mean) * (x - mean);
    if (var <= 1e-30) return;  // constant income: EMA already exact

    // Normalized autocorrelation per candidate lag. Lags run up to a
    // third of the grid, so a period needs >= 3 repetitions in history to
    // be confirmable; among lags within 10% of the best, prefer the
    // SMALLEST (a true period also correlates at its harmonics).
    constexpr std::size_t kMinLag = 4;
    double r[kGrid / 3 + 1];
    double best_r = -1.0;
    for (std::size_t lag = kMinLag; lag <= kGrid / 3; ++lag) {
      double acc = 0.0;
      for (std::size_t i = 0; i + lag < kGrid; ++i) {
        acc += (grid[i] - mean) * (grid[i + lag] - mean);
      }
      r[lag] = (acc / static_cast<double>(kGrid - lag)) / (var / static_cast<double>(kGrid));
      best_r = std::max(best_r, r[lag]);
    }
    if (best_r < conf_) return;
    std::size_t period_lag = 0;
    for (std::size_t lag = kMinLag; lag <= kGrid / 3; ++lag) {
      if (r[lag] >= conf_ && r[lag] >= 0.9 * best_r) {
        period_lag = lag;
        break;
      }
    }
    if (period_lag == 0) return;
    const double p0 = span * static_cast<double>(period_lag) / static_cast<double>(kGrid);

    // The grid's lag resolution is span/kGrid, so a true period that is a
    // fractional number of grid steps aliases onto a near-exact MULTIPLE
    // of itself (e.g. 5x, which does land on an integer lag). Refine by
    // phase-dispersion minimization over the raw timestamped samples:
    // fold the history at p0 and its sub-multiples p0/k, keep the
    // smallest candidate that folds as cleanly as the best one. A
    // candidate must average enough samples per period to fill its bins,
    // or a tiny period would fold every sample into its own bin and win
    // with artificial zero dispersion.
    const double n_hist = static_cast<double>(history_.size());
    const double hist_mean = mean_of_history();
    const double hist_var = var_of_history(hist_mean);
    double best_period = 0.0;
    double best_disp = std::numeric_limits<double>::infinity();
    double smallest_ok = 0.0;
    for (int k = 1; k <= 8; ++k) {
      const double p = p0 / static_cast<double>(k);
      if (n_hist * p / span < static_cast<double>(bins_)) break;
      const double d = phase_dispersion(p, hist_var);
      if (d < best_disp) {
        best_disp = d;
        best_period = p;
      }
    }
    if (best_period <= 0.0 || best_disp > 1.0 - conf_) return;
    for (int k = 8; k >= 1; --k) {
      const double p = p0 / static_cast<double>(k);
      if (n_hist * p / span < static_cast<double>(bins_)) continue;
      if (phase_dispersion(p, hist_var) <= std::max(best_disp * 1.2, best_disp + 0.02)) {
        smallest_ok = p;
        break;
      }
    }
    const double period = smallest_ok > 0.0 ? smallest_ok : best_period;

    build_table(period, hist_mean);
    period_s_ = period;
  }

  double mean_of_history() const {
    double m = 0.0;
    for (const Sample& s : history_) m += s.w;
    return m / static_cast<double>(history_.size());
  }

  double var_of_history(double mean) const {
    double v = 0.0;
    for (const Sample& s : history_) v += (s.w - mean) * (s.w - mean);
    return v / static_cast<double>(history_.size());
  }

  // Normalized within-phase-bin variance of the history folded at period
  // `p`: ~0 when p (or a multiple) is the true period, ~1 when folding
  // scrambles the signal.
  // Scratch buffers are members: detect() runs on every sample and calls
  // this up to ~20 times per re-derivation — no per-call allocations.
  double phase_dispersion(double p, double var) const {
    if (var <= 1e-30) return 1.0;
    auto& sum = scratch_sum_;
    auto& sum2 = scratch_sum2_;
    auto& cnt = scratch_cnt_;
    sum.assign(bins_, 0.0);
    sum2.assign(bins_, 0.0);
    cnt.assign(bins_, 0);
    for (const Sample& s : history_) {
      double phase = std::fmod(s.t, p) / p;
      if (phase < 0.0) phase += 1.0;
      std::size_t b = static_cast<std::size_t>(phase * static_cast<double>(bins_));
      if (b >= bins_) b = bins_ - 1;
      sum[b] += s.w;
      sum2[b] += s.w * s.w;
      ++cnt[b];
    }
    double within = 0.0;
    long n = 0;
    for (std::size_t b = 0; b < bins_; ++b) {
      if (cnt[b] == 0) continue;
      const double m = sum[b] / static_cast<double>(cnt[b]);
      within += sum2[b] - 2.0 * m * sum[b] + static_cast<double>(cnt[b]) * m * m;
      n += cnt[b];
    }
    return (within / static_cast<double>(n)) / var;
  }

  void build_table(double period, double mean) {
    // Phase-indexed income table: per-phase means of the RAW samples
    // (each weighted once — reboot-dense phases do not flood the quiet
    // ones because the bins are phase-local anyway).
    table_.assign(bins_, 0.0);
    auto& counts = scratch_cnt_;
    counts.assign(bins_, 0);
    for (const Sample& s : history_) {
      double phase = std::fmod(s.t, period) / period;
      if (phase < 0.0) phase += 1.0;
      std::size_t b = static_cast<std::size_t>(phase * static_cast<double>(bins_));
      if (b >= bins_) b = bins_ - 1;
      table_[b] += s.w;
      ++counts[b];
    }
    for (std::size_t b = 0; b < bins_; ++b) {
      // Unvisited phases (the device never rebooted there) fall back to
      // the history mean rather than claiming zero income.
      table_[b] = counts[b] > 0 ? table_[b] / static_cast<double>(counts[b]) : mean;
    }
  }

  double prior_, alpha_;
  std::size_t bins_;
  double conf_;
  double est_;  // EMA fallback while no period is confirmed
  std::deque<Sample> history_;
  std::vector<double> table_;  // phase-indexed means (empty when unlocked)
  mutable std::vector<double> scratch_sum_, scratch_sum2_;
  mutable std::vector<long> scratch_cnt_;
  double period_s_ = 0.0;
  long samples_ = 0;
};

constexpr double kDefaultPriorW = 1.2e-3;  // the paper's constant-harvest regime

// THE forecaster-kind table (dispatch + forecaster_kinds(), one place).
struct KindEntry {
  const char* kind;
  std::unique_ptr<HarvestForecaster> (*make)(SpecArgs& a);
};

// Ranged spec arguments: an out-of-range value is rejected here, naming
// the key; the constructors' checks stay as invariants.
constexpr double kInf = std::numeric_limits<double>::infinity();
double prior_arg(SpecArgs& a) { return a.num("prior", kDefaultPriorW, 0.0, kInf); }
double alpha_arg(SpecArgs& a) { return a.num("alpha", 0.5, SpecArgs::kPositive, 1.0); }

std::unique_ptr<HarvestForecaster> make_ema_spec(SpecArgs& a) {
  return make_ema_forecaster(prior_arg(a), alpha_arg(a));
}

std::unique_ptr<HarvestForecaster> make_window_spec(SpecArgs& a) {
  const auto n = a.integer<std::size_t>("n", 8, 1, 1'000'000);
  return make_window_forecaster(prior_arg(a), n);
}

std::unique_ptr<HarvestForecaster> make_const_spec(SpecArgs& a) {
  return make_const_forecaster(a.num("w", kDefaultPriorW, 0.0, kInf));
}

std::unique_ptr<HarvestForecaster> make_periodic_spec(SpecArgs& a) {
  const auto bins = a.integer<std::size_t>("bins", 12, 2, 1024);
  return make_periodic_forecaster(prior_arg(a), alpha_arg(a), bins,
                                  a.num("conf", 0.6, SpecArgs::kPositive, 1.0));
}

constexpr KindEntry kKindTable[] = {
    {"ema", make_ema_spec},
    {"window", make_window_spec},
    {"const", make_const_spec},
    {"periodic", make_periodic_spec},
};

}  // namespace

std::unique_ptr<HarvestForecaster> make_ema_forecaster(double prior_w, double alpha) {
  return std::make_unique<EmaForecaster>(prior_w, alpha);
}

std::unique_ptr<HarvestForecaster> make_window_forecaster(double prior_w, std::size_t n) {
  return std::make_unique<WindowForecaster>(prior_w, n);
}

std::unique_ptr<HarvestForecaster> make_const_forecaster(double w) {
  return std::make_unique<ConstForecaster>(w);
}

std::unique_ptr<HarvestForecaster> make_periodic_forecaster(double prior_w, double alpha,
                                                            std::size_t bins,
                                                            double confidence) {
  return std::make_unique<PeriodicForecaster>(prior_w, alpha, bins, confidence);
}

const std::vector<std::string>& forecaster_kinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> v;
    for (const auto& k : kKindTable) v.emplace_back(k.kind);
    return v;
  }();
  return kinds;
}

std::unique_ptr<HarvestForecaster> make_forecaster(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  SpecArgs a(spec, colon == std::string::npos ? "" : spec.substr(colon + 1));
  for (const auto& k : kKindTable) {
    if (kind == k.kind) {
      auto fc = k.make(a);
      a.finish();
      return fc;
    }
  }
  std::string known;
  for (const auto& k : kKindTable) known += std::string(known.empty() ? "" : "|") + k.kind;
  fail("forecaster spec \"" + spec + "\": unknown kind \"" + kind + "\" (" + known + ")");
}

}  // namespace ehdnn::sched
