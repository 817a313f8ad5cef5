// Per-boot policy selection: the paper's offline FLEX-vs-fixed choice
// made *online*, by a scheduler that re-picks the execution strategy (and
// the model variant it runs) at every power cycle from the harvest
// forecast and the progress already banked.
//
// AdaptivePolicy is itself a flex::RuntimePolicy, so it rides the shared
// IntermittentExecutor unchanged: the executor sees one policy; inside,
// a ladder of inner tiers — richest to leanest (kLadder below) —
//
//     base  (dense twin,  ACE kernels, no checkpointing)
//     ace   (compressed,  ACE kernels, no checkpointing)
//     flex  (compressed,  on-demand checkpointing)
//     sonic (dense twin,  fine-grained loop continuation)
//     tile  (dense twin,  sub-layer reduction-tile cursors)
//
// is selected per boot. Each tier is a runtime-table key: its policy and
// its model variant come from the one table in sched/runtimes.cpp.
// Fresh boots pick from the forecast (and from the static
// burst-vs-checkpoint budget: a capacitor too small to fund a FLEX
// checkpoint is a SONIC device, and one too small to fund even SONIC's
// largest minimal commit is a tile device — no forecast needed) — either by income
// thresholds (sel=income, the PR-4 ladder) or by predicted completion
// time against the job's deadline (sel=deadline: the cheapest tier whose
// CompletionModel estimate beats the time remaining). After a failure the
// rules are demote-biased: checkpoint formats are tier-private, so
// switching restarts the inference — losing nothing on the restart-from-
// scratch tiers, and only ever abandoning a persistent tier when it has
// stopped making forward progress. A tier switch is therefore always a
// *boot* event, which is exactly where the crash-consistency fuzzer aims
// its brown-outs.
//
// Correctness contract: whichever tier completes, the output is bit-exact
// against that tier's model variant under continuous power (each inner
// policy already guarantees this; the scheduler only ever switches at
// boot boundaries with a fresh restart, so it cannot mix two tiers'
// progress). tests/fuzz_intermittent_test.cpp enforces it.
#pragma once

#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/flex/executor.h"
#include "sched/forecast.h"

namespace ehdnn::sched {

// The ladder in order, richest (index 0) to leanest, each rung with the
// scheduler's persistence flag: a persistent tier's progress survives
// reboots (its FRAM cursors/checkpoints), so switching away from it
// abandons banked work, and the scheduler only does that when the tier
// has stopped progressing. The ladder, the completion model's
// calibration and the contract checker all iterate this list; the
// dense-twin rungs ship only when the image carries a dense twin.
struct LadderTier {
  const char* key;  // a runtime-table key (sched/runtimes.h)
  bool persistent;
};
inline constexpr LadderTier kLadder[] = {
    {"base", false}, {"ace", false}, {"flex", true}, {"sonic", true}, {"tile", true},
};

// How a fresh boot picks its tier.
enum class TierSelect {
  kIncome,    // PR-4 threshold ladder: forecast watts vs rich/full
  kDeadline,  // cheapest tier whose predicted completion beats the deadline
};

// Whether the job queue may refuse a release the forecast says cannot
// finish by its deadline (sched/agenda.h consults this).
enum class Admission {
  kAll,     // run every release (PR-4 behavior)
  kBudget,  // skip releases whose best-tier predicted completion misses
            // the deadline by more than admit_slack_s
};

struct AdaptiveSpec {
  // Forecaster spec (sched::make_forecaster grammar).
  std::string forecaster = "ema:prior=1.2e-3,alpha=0.5";
  // Tier-selection mode (sel=income|deadline).
  TierSelect sel = TierSelect::kIncome;
  // Job-admission mode (admit=all|budget) and the slack (seconds past the
  // deadline) a predicted-late release is still allowed to run with.
  Admission admit = Admission::kAll;
  double admit_slack_s = 0.0;
  // Probe valve: after this many consecutive skipped releases the next
  // one is admitted regardless of the prediction. Skipped releases record
  // no income samples, so without probing a stale lean forecast could
  // refuse releases forever; the probe bounds that failure mode and
  // feeds the forecaster fresh evidence.
  int probe_skips = 3;
  // Forecast income at/above which a fresh boot promotes to the ace tier
  // (compressed model, no checkpoint overhead).
  double rich_w = 3e-3;
  // Forecast income at/above which a fresh boot runs the full (dense)
  // model on ACE kernels — the paper's BASE. Default: disabled.
  double full_w = std::numeric_limits<double>::infinity();
  // A burst below ckpt_margin x worst-case FLEX checkpoint energy cannot
  // afford on-demand checkpointing: the device is statically a SONIC
  // device (when the dense twin is provisioned). Conservative default:
  // FLEX's degraded mode tolerates bursts only a little above one
  // checkpoint, and SONIC on the dense twin is much slower — demotion
  // must wait until FLEX genuinely cannot land its state.
  double ckpt_margin = 2.0;
  // Consecutive power cycles without forward progress before the
  // scheduler demotes one rung down the ladder.
  int demote_boots = 2;
};

// Parses `adaptive[:key=value,...]` with keys fc (ema|window|const|
// periodic), prior, alpha, n, w, bins, conf (forwarded to the forecaster
// spec), sel (income|deadline), admit (all|budget), slack, probe, rich,
// full, ckpt_margin, demote. A given slack, rich, full or ckpt_margin
// must be finite and >= 0. Throws ehdnn::Error on malformed input.
AdaptiveSpec parse_adaptive_spec(const std::string& spec);

// What the deployment ships for the scheduler to choose between. Both
// compiled models must live on the SAME device (ace::compile co_resident)
// and share the input size. `dense` may be null — the ladder then
// collapses to {ace, flex} over the compressed image. burst_energy_j is
// the capacitor's usable per-burst energy (power::CapacitorSupply::
// burst_energy()); infinity means "unknown/unbounded" (bench power).
// `completion` is where the policy reads its CompletionModel from; null
// means the policy keeps a private one (see CompletionSlot).
class CompletionSlot;
struct DeploymentImage {
  const ace::CompiledModel* compressed = nullptr;
  const ace::CompiledModel* dense = nullptr;
  double burst_energy_j = std::numeric_limits<double>::infinity();
  std::shared_ptr<CompletionSlot> completion;
};

// Per-tier completion-time prediction: how long (wall-clock supply time)
// each tier would take to push one inference through under a given income
// forecast. Calibration replays the deployment image tier by tier on a
// SCRATCH device replica (same geometry and cost model, bench power) so
// the per-tier continuous-power energy and on-time are the executor's own
// exact modeled costs — nothing is drawn from the real device or its
// supply. Prediction then folds in the capacitor's burst energy, the
// forecast income, and a per-cycle overhead estimate (checkpoint traffic,
// refined online from observed boots by the adaptive policy).
class CompletionModel {
 public:
  struct Tier {
    std::string key;        // "base" | "ace" | "flex" | "sonic" | "tile"
    bool dense = false;     // executes the dense twin
    bool persistent = false;  // progress survives reboots
    double energy_j = 0.0;  // continuous-power inference energy
    double on_s = 0.0;      // continuous-power inference time
  };

  // Calibrates every tier the image ships, in kLadder order: all five
  // when `dense` is non-null, {ace, flex} otherwise. `dcfg` is the real
  // device's configuration (the scratch replicas are built from it).
  static CompletionModel calibrate(const ace::CompiledModel& compressed,
                                   const ace::CompiledModel* dense,
                                   const dev::DeviceConfig& dcfg);

  const std::vector<Tier>& tiers() const { return tiers_; }
  const Tier* tier(std::string_view key) const;

  // Predicted wall-clock seconds for `t` to complete one inference given
  // usable per-burst energy, forecast income, and a per-power-cycle
  // energy overhead (checkpoint write + restore traffic). Infinity when
  // the tier cannot finish: a restart-from-scratch tier that cannot fit
  // the whole inference into one power cycle, or a persistent tier whose
  // overhead eats the entire burst, or zero income with an insufficient
  // burst.
  double predict_s(const Tier& t, double burst_j, double income_w, double overhead_j) const;

  // Like predict_s, but integrates the forecaster's income CURVE from
  // supply time `now_s` forward, power cycle by power cycle
  // (forecast_at_w) instead of assuming a flat rate — with a locked
  // periodic forecast each recharge gap is priced at its own wall-clock
  // phase, so a run straddling a lean phase (or starting right after
  // one ends) is predicted honestly. Falls back to the flat next-cycle
  // forecast when no period is confirmed.
  double predict_curve_s(const Tier& t, double burst_j, const HarvestForecaster& fc,
                         double now_s, double overhead_j) const;

  // Smallest calibrated per-inference energy across tiers — a lower bound
  // on what running a release to completion would burn (what admission
  // control reports as reclaimed when it skips one).
  double min_energy_j() const;

  // Calibrations run in this process so far (every calibrate() call).
  static long calibrations_run();

 private:
  std::vector<Tier> tiers_;
};

// A CompletionModel calibrated on first use and shared by every policy
// provisioned with this slot: a fleet group's template hands one slot to
// each device it builds, so a group calibrates once, on the first device
// whose scheduler asks, and no group calibrates eagerly. get() is
// thread-safe (fleet workers run devices of one group concurrently).
// Sharing is exact because the devices of a group differ only in their
// scramble seed, and calibration does not depend on it.
class CompletionSlot {
 public:
  const CompletionModel& get(const ace::CompiledModel& compressed,
                             const ace::CompiledModel* dense, const dev::DeviceConfig& dcfg);

 private:
  std::once_flag once_;
  std::optional<CompletionModel> model_;
};

// One tier decision, as witnessed by the contract checker's enumeration
// hook (AdaptivePolicy::set_decision_log). Every fresh-boot selection, every
// non-persistent-tier re-decision, and every demotion appends one entry,
// together with the scheduler inputs the decision was a function of — which
// is what lets CONTRACT-3 (stability: no tier flap without an income or
// job-outcome change) be checked as "equal inputs imply equal decision"
// over real runs rather than re-deriving the decision rule.
struct TierDecision {
  double t_s = 0.0;          // supply time at the decision
  std::string tier;          // chosen tier key ("base".."tile")
  bool demote = false;       // outcome-driven demotion, not a fresh pick
  long fc_samples = 0;       // forecaster samples folded in so far
  double fc_period_s = 0.0;  // confirmed period (0 = no lock)
  double forecast_w = 0.0;   // forecast_at_w(t_s) — the income input
  double ovh_j = -1.0;       // observed FLEX overhead EMA (-1 = prior)
  double deadline_s = 0.0;   // absolute job deadline (identifies the job)
};

class AdaptivePolicy : public flex::RuntimePolicy {
 public:
  explicit AdaptivePolicy(AdaptiveSpec spec);
  ~AdaptivePolicy() override;

  // Binds the co-resident model variants and the energy budget. Without
  // provisioning the policy still works (tiers {ace, flex} over whatever
  // model the executor was armed with) — that is what the generic
  // runtime table hands out. May be called again (new device image); the
  // forecaster's learned state survives, the ladder is rebuilt.
  void provision(const DeploymentImage& image);

  void on_boot(flex::StepContext& ctx, bool fresh) override;
  bool step(flex::StepContext& ctx) override;
  bool retry_after_failure(flex::StepContext& ctx, double attempt_cycles) override;
  const ace::CompiledModel& output_model(const ace::CompiledModel& armed) const override;

  // --- scheduling diagnostics (read by the fleet's job queue) ----------
  // Tier key currently selected: "base", "ace", "flex", "sonic" or
  // "tile" ("" before the first boot).
  std::string current_runtime() const;
  // Whether the current tier executes the dense twin.
  bool on_dense_model() const;
  // Mid-run tier switches since construction (monotone across jobs).
  long tier_switches() const;
  // The forecaster (samples persist across jobs — that is the feature).
  const HarvestForecaster& forecaster() const;
  const AdaptiveSpec& spec() const { return spec_; }

  // --- completion prediction (energy-budgeted admission) ---------------
  // Predicted wall-clock seconds from now until the BEST tier could
  // complete one inference of `armed` under the current forecast.
  // Calibrates the completion model on first use (scratch-device runs —
  // the real device's trace and supply are untouched; `dev` only donates
  // its configuration). Infinity when no tier is predicted to finish.
  double predict_best_completion_s(const dev::Device& dev, const ace::CompiledModel& armed);
  // Best-case floor on the same quantity: the fastest allowed tier's
  // calibrated continuous-power time — what the release would need even
  // if the harvester delivered unbounded income. A release whose time
  // budget is below this is infeasible by the cost model alone, no
  // forecast required.
  double predict_optimistic_s(const dev::Device& dev, const ace::CompiledModel& armed);
  // The calibrated model, nullptr before the first prediction/deadline
  // decision.
  const CompletionModel* completion_model() const;
  // Lower bound on the energy a skipped release would have burned (the
  // cheapest calibrated tier); 0 before calibration.
  double reclaimable_energy_j() const;

  // --- enumeration hook (sched/contracts.h) ----------------------------
  // Non-owning sink for per-boot tier decisions; null (the default)
  // disables logging. The pointee must outlive the runs it witnesses.
  void set_decision_log(std::vector<TierDecision>* log);

 private:
  // Success-path income sensing (called from step() on completion).
  void observe_success_income(flex::StepContext& ctx);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  AdaptiveSpec spec_;
};

std::unique_ptr<flex::RuntimePolicy> make_adaptive_policy(AdaptiveSpec spec = {});

// Provisions a policy held behind the generic interface if (and only if)
// it is an AdaptivePolicy; returns whether it was one. The sim layer uses
// this to wire the co-resident images the runtime table cannot know about.
bool provision_adaptive(flex::RuntimePolicy& policy, const DeploymentImage& image);

// One-call deployment wiring for the sim layer: provisions `policy` (a
// no-op for fixed policies) with the co-resident image and returns the
// worst-case FLEX checkpoint energy across the shipped variants — the
// budget the caller's voltage-monitor threshold must cover. `dense` may
// be null (fixed runtimes, or an unprovisioned single-variant image).
// `completion` is the shared calibration slot of the image (null: the
// policy keeps a private one).
double provision_deployment(flex::RuntimePolicy& policy, const dev::CostModel& cost,
                            const ace::CompiledModel& primary,
                            const ace::CompiledModel* dense, double burst_energy_j,
                            std::shared_ptr<CompletionSlot> completion = nullptr);

// Downcast accessor for diagnostics (nullptr for fixed policies). The
// mutable overload is what the job queue's admission control uses
// (prediction may calibrate lazily).
const AdaptivePolicy* as_adaptive(const flex::RuntimePolicy* policy);
AdaptivePolicy* as_adaptive(flex::RuntimePolicy* policy);

}  // namespace ehdnn::sched
