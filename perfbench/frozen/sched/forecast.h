// Harvest forecasting: predicting the income the harvester will deliver
// over the next power cycle from what it delivered over past ones.
//
// The intermittent runtimes observe income only indirectly — each
// recharge gap refills the capacitor's burst energy, so one observed
// sample is burst_energy / gap_seconds (watts). A forecaster folds those
// samples into a prediction; the adaptive policy (sched/adaptive.h) maps
// the prediction onto a runtime/model-variant ladder at every boot.
//
// Forecasters are deterministic: the same sample sequence yields the same
// forecasts, which is what keeps adaptive runs replayable (the same
// property the crash-consistency fuzzer relies on).
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace ehdnn::sched {

class HarvestForecaster {
 public:
  virtual ~HarvestForecaster() = default;

  virtual std::string name() const = 0;

  // Folds one observed recharge-average income sample (watts) in.
  virtual void record(double income_w) = 0;

  // Timestamped record: `t_s` is the supply-time instant the sample
  // represents (the adaptive policy passes the recharge gap's midpoint).
  // Smoothing forecasters ignore the time; the periodic forecaster
  // anchors its phase table to it. Default: plain record().
  virtual void record_at(double income_w, double t_s) {
    (void)t_s;
    record(income_w);
  }

  // Predicted income (watts) for the next power cycle. Before the first
  // record() this is the configured prior.
  virtual double forecast_w() const = 0;

  // Predicted income (watts) at the absolute supply-time instant `t_s` —
  // the income CURVE completion-time prediction integrates. Smoothing
  // forecasters predict a flat curve; the periodic forecaster reads the
  // phase its table assigns to t_s, which is what lets a release decision
  // know a lean phase (a solar night) is in the way — or already over,
  // even when the device idled through the transition without observing
  // a single sample. Default: the flat forecast.
  virtual double forecast_at_w(double t_s) const {
    (void)t_s;
    return forecast_w();
  }

  // Detected income period in seconds (supply time). 0 until a period is
  // confirmed — only the periodic forecaster ever reports one.
  virtual double period_s() const { return 0.0; }

  // Number of samples folded in so far.
  virtual long samples() const = 0;

  // Back to the prior, forgetting all samples (a fresh deployment; NOT
  // called between jobs — carrying the forecast across jobs is the whole
  // point of per-boot scheduling).
  virtual void reset() = 0;
};

// Exponential moving average: forecast <- (1-alpha)*forecast + alpha*x.
// `alpha` in (0, 1]; 1.0 degenerates to last-value prediction.
std::unique_ptr<HarvestForecaster> make_ema_forecaster(double prior_w, double alpha);

// Windowed-trace predictor: the mean of the last `n` samples (the trace
// window), prior before any sample arrives.
std::unique_ptr<HarvestForecaster> make_window_forecaster(double prior_w, std::size_t n);

// Fixed-assumption forecaster: always predicts `w`, ignores samples
// (adaptation disabled; useful as an experiment control).
std::unique_ptr<HarvestForecaster> make_const_forecaster(double w);

// Periodicity-detecting forecaster: keeps a timestamped history of
// income samples, resamples it onto a uniform grid, and runs normalized
// autocorrelation over candidate lags after every record. Once a lag
// correlates at/above `confidence` (with at least three periods of
// history; harmonics resolved toward the shortest lag) the period is
// locked and predictions come from a phase-indexed income table: `bins`
// per-phase means over the history, phase = t mod period. Until a period
// is confirmed — and again whenever the lock degrades — it behaves
// exactly like the EMA forecaster, so a non-periodic source costs
// nothing but the history bookkeeping. Untimed record() calls place
// samples at unit spacing, so pure sample-sequence periodicity is
// detected too. Deterministic, like every forecaster.
std::unique_ptr<HarvestForecaster> make_periodic_forecaster(double prior_w, double alpha,
                                                            std::size_t bins = 12,
                                                            double confidence = 0.6);

// Factory keyed by a spec string, mirroring power::make_harvest_source:
//   ema[:prior=W,alpha=A]             (defaults prior=1.2e-3, alpha=0.5)
//   window[:prior=W,n=N]              (defaults prior=1.2e-3, n=8)
//   const[:w=W]                       (default w=1.2e-3)
//   periodic[:prior=W,alpha=A,bins=B,conf=C]
//                                     (defaults prior=1.2e-3, alpha=0.5,
//                                      bins=12, conf=0.6)
// Unknown kinds/keys and malformed values throw ehdnn::Error.
std::unique_ptr<HarvestForecaster> make_forecaster(const std::string& spec);

// The spec kinds the factory accepts, from the same static kind table the
// dispatch uses.
const std::vector<std::string>& forecaster_kinds();

}  // namespace ehdnn::sched
