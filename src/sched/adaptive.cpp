#include "sched/adaptive.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/ace/compiled_model.h"
#include "core/flex/runtime.h"
#include "power/continuous.h"
#include "sched/runtimes.h"
#include "util/check.h"
#include "util/spec.h"

namespace ehdnn::sched {

namespace {

// Calls f(rung, dense) for each kLadder rung an image ships, richest
// first, where `dense` is the rung's model variant in the runtime table:
// the dense-twin rungs ship only when `twin` does.
template <class F>
void for_each_tier(bool twin, F&& f) {
  for (const LadderTier& rung : kLadder) {
    const bool dense = !runtime_uses_compressed_model(rung.key);
    if (twin || !dense) f(rung, dense);
  }
}

// One rung of a provisioned ladder, with its own policy instance.
struct Tier {
  std::string_view key;
  bool dense_variant;
  bool persistent;
  std::unique_ptr<flex::RuntimePolicy> policy;
};

}  // namespace

// ------------------------------------------------------- CompletionModel

namespace {
std::atomic<long> g_calibrations{0};
}  // namespace

long CompletionModel::calibrations_run() { return g_calibrations.load(); }

CompletionModel CompletionModel::calibrate(const ace::CompiledModel& compressed,
                                           const ace::CompiledModel* dense,
                                           const dev::DeviceConfig& dcfg) {
  ++g_calibrations;
  // Scratch replica: same geometry and cost model, bench power, fresh
  // FRAM. The compiled image is rebuilt from the variants' QuantModel
  // copies, so the calibration runs are the executor's own exact modeled
  // costs without touching the real device's trace, FRAM, or supply.
  dev::Device scratch(dcfg);
  power::ContinuousPower bench;
  scratch.attach_supply(&bench);
  const ace::CompiledModel cm_c = ace::compile(compressed.model, scratch);
  std::optional<ace::CompiledModel> cm_d;
  if (dense != nullptr) {
    cm_d.emplace(ace::compile(dense->model, scratch, /*co_resident=*/true));
  }

  CompletionModel m;
  const std::vector<fx::q15_t> input(cm_c.model.layers.front().in_size(), 0);
  for_each_tier(dense != nullptr, [&](const LadderTier& rung, bool dense_variant) {
    auto policy = make_policy(rung.key);
    flex::IntermittentExecutor ex(*policy);
    const flex::RunStats st = ex.run(scratch, dense_variant ? *cm_d : cm_c, input);
    check(st.completed(), std::string("completion model: calibration run for tier ") +
                              rung.key + " did not complete under bench power");
    m.tiers_.push_back(
        {rung.key, dense_variant, rung.persistent, st.energy_j, st.on_seconds});
  });
  return m;
}

const CompletionModel& CompletionSlot::get(const ace::CompiledModel& compressed,
                                           const ace::CompiledModel* dense,
                                           const dev::DeviceConfig& dcfg) {
  std::call_once(once_, [&] {
    model_.emplace(CompletionModel::calibrate(compressed, dense, dcfg));
  });
  return *model_;
}

const CompletionModel::Tier* CompletionModel::tier(std::string_view key) const {
  for (const auto& t : tiers_) {
    if (t.key == key) return &t;
  }
  return nullptr;
}

double CompletionModel::predict_s(const Tier& t, double burst_j, double income_w,
                                  double overhead_j) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double p_draw = t.energy_j / std::max(t.on_s, 1e-12);
  // Income at/above the draw rate: the capacitor never drains — the run
  // is effectively continuous.
  if (income_w >= p_draw) return t.on_s;
  // One burst (plus the income that accrues while drawing it down) covers
  // the whole inference: completes within the first power cycle.
  if (burst_j >= (p_draw - income_w) * t.on_s) return t.on_s;
  // Multi-cycle territory. Restart-from-scratch tiers bank nothing
  // between cycles, so they never get past this point.
  if (!t.persistent) return kInf;
  if (income_w <= 0.0) return kInf;
  // Per cycle: the burst drains in t_on = burst / (p_draw - income), of
  // which overhead_j buys no forward progress; refilling takes
  // t_off = burst / income.
  const double t_on = burst_j / (p_draw - income_w);
  const double useful_j = p_draw * t_on - overhead_j;
  if (useful_j <= 0.0) return kInf;
  const double cycles = std::ceil(t.energy_j / useful_j);
  return cycles * (t_on + burst_j / income_w);
}

double CompletionModel::predict_curve_s(const Tier& t, double burst_j,
                                        const HarvestForecaster& fc, double now_s,
                                        double overhead_j) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double period = fc.period_s();
  if (period <= 0.0) return predict_s(t, burst_j, fc.forecast_w(), overhead_j);
  const double p_draw = t.energy_j / std::max(t.on_s, 1e-12);
  // Recharge gaps are integrated through the income curve in sub-period
  // steps: a gap that starts at a lean phase must not be priced at that
  // phase for its whole duration when a rich phase (a dawn) arrives
  // mid-gap — and vice versa at dusk.
  const double step = period / 32.0;
  double remaining = t.energy_j;
  double time = 0.0;
  for (long k = 0; k < 100000; ++k) {
    const double w = std::max(0.0, fc.forecast_at_w(now_s + time));
    const double t_need = remaining / p_draw;
    // This cycle's income covers the rest (or the burst does): done.
    if (w >= p_draw || burst_j >= (p_draw - w) * t_need) return time + t_need;
    if (!t.persistent) return kInf;
    const double t_on = burst_j / (p_draw - w);
    const double useful = p_draw * t_on - overhead_j;
    if (useful <= 0.0) return kInf;
    remaining -= useful;
    time += t_on;
    // Refill one burst following the curve from the brown-out instant.
    double acc = 0.0;
    long gap_steps = 0;
    while (acc < burst_j) {
      if (++gap_steps > 100000) return kInf;  // forecast says: never refills
      const double wg = std::max(0.0, fc.forecast_at_w(now_s + time));
      const double dt = wg > 0.0 ? std::min(step, (burst_j - acc) / wg) : step;
      acc += wg * dt;
      time += dt;
    }
  }
  return kInf;
}

double CompletionModel::min_energy_j() const {
  double e = std::numeric_limits<double>::infinity();
  for (const auto& t : tiers_) e = std::min(e, t.energy_j);
  return std::isfinite(e) ? e : 0.0;
}

struct AdaptivePolicy::Impl {
  DeploymentImage image;
  bool provisioned = false;

  std::vector<Tier> tiers;  // richest (index 0) to leanest

  std::unique_ptr<HarvestForecaster> fc;

  // Cached per device image: worst-case FLEX checkpoint energy, the
  // quantity the burst budget is compared against (-1 = not yet
  // computed; filled lazily by flex_ckpt(), the ONE source both the
  // boot-time deciders and the admission predictors read).
  double flex_ckpt_j = -1.0;
  // SONIC's worst minimal-commit energy on the dense image (-1 = not yet
  // computed) — the threshold below which the ladder pins to tile.
  double sonic_unit_j = -1.0;
  bool ready = false;

  // Deadline-mode state: the calibrated completion model (lazy — only
  // sel=deadline / admit=budget ever pay for the calibration runs; read
  // from the image's slot, or a private one) and the observed per-cycle
  // checkpoint overhead that refines its FLEX prediction (prior: the
  // worst-case checkpoint energy).
  std::shared_ptr<CompletionSlot> slot;
  const CompletionModel* cmpl = nullptr;
  double ovh_flex_ema = 0.0;
  long ovh_flex_n = 0;
  double last_ckpt_e = 0.0;

  // Per-run scheduling state.
  int cur = -1;
  bool inner_fresh_pending = false;  // a tier's fresh boot tore mid-write
  double last_off_s = 0.0;
  long last_units = 0;
  long last_ckpts = 0;
  int no_progress = 0;
  bool force_demote = false;
  long switches = 0;

  // Start-of-power-cycle marks for the success-path income sensor (see
  // observe_success_income).
  double cycle_e0 = 0.0;
  double cycle_t0 = 0.0;

  // Contract-checker decision sink (set_decision_log); null = off.
  std::vector<TierDecision>* dlog = nullptr;
  void log_decision(const flex::StepContext& ctx, int tier_i, bool demote) {
    if (dlog == nullptr) return;
    TierDecision d;
    const dev::PowerSupply* sup = ctx.dev.supply();
    d.t_s = sup != nullptr ? sup->now() : 0.0;
    d.tier = tiers[static_cast<std::size_t>(tier_i)].key;
    d.demote = demote;
    d.fc_samples = fc->samples();
    d.fc_period_s = fc->period_s();
    d.forecast_w = sup != nullptr ? fc->forecast_at_w(sup->now()) : fc->forecast_w();
    d.ovh_j = ovh_flex_n > 0 ? ovh_flex_ema : -1.0;
    d.deadline_s = ctx.opts.deadline_s;
    dlog->push_back(std::move(d));
  }

  // Last observed forecaster lock state, so the obs stream records each
  // kForecastLock/kForecastDrop transition exactly once. Checked after
  // every sample site (gap sensor, success sensor).
  bool fc_locked = false;
  void note_forecast_lock(flex::StepContext& ctx) {
    const bool locked = fc->period_s() > 0.0;
    if (locked != fc_locked) {
      obs::record(ctx.opts.trace, flex::obs_now_s(ctx.dev),
                  locked ? obs::EventKind::kForecastLock
                         : obs::EventKind::kForecastDrop);
      fc_locked = locked;
    }
  }

  // Whether the image ships the dense twin (and so the dense-twin tiers).
  bool twin() const { return provisioned && image.dense != nullptr; }

  // Index of the tier named `key` (-1 when the image does not ship it).
  int at(std::string_view key) const {
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      if (tiers[i].key == key) return static_cast<int>(i);
    }
    return -1;
  }

  void rebuild() {
    tiers.clear();
    for_each_tier(twin(), [&](const LadderTier& rung, bool dense) {
      tiers.push_back({rung.key, dense, rung.persistent, make_policy(rung.key)});
    });
    cur = -1;
    inner_fresh_pending = false;
    ready = false;
    // A new image invalidates the calibration.
    slot = provisioned ? image.completion : nullptr;
    cmpl = nullptr;
    flex_ckpt_j = -1.0;
    sonic_unit_j = -1.0;
  }

  const ace::CompiledModel& resolve_cm(const flex::StepContext& ctx, const Tier& t) const {
    if (!provisioned) return ctx.cm;
    return *(t.dense_variant ? image.dense : image.compressed);
  }

  // Lazily-computed worst-case FLEX checkpoint energy for the current
  // image (the flex tier always runs the compressed/armed model).
  double flex_ckpt(const ace::CompiledModel& armed, const dev::Device& dev) {
    if (flex_ckpt_j < 0.0) {
      const ace::CompiledModel& cm = provisioned ? *image.compressed : armed;
      flex_ckpt_j = flex::worst_checkpoint_energy(cm, dev.cost());
    }
    return flex_ckpt_j;
  }

  void ensure_ready(flex::StepContext& ctx) {
    if (ready) return;
    for (const auto& t : tiers) {
      check(resolve_cm(ctx, t).model.layers.front().in_size() == ctx.input.size(),
            "adaptive: co-resident model variants must share the input size");
    }
    flex_ckpt(ctx.cm, ctx.dev);
    sonic_unit(ctx.dev);
    ready = true;
  }

  // Lazily-computed SONIC worst minimal-commit energy on the dense image
  // (0 when no dense twin ships — forced_tier then never pins tile).
  double sonic_unit(const dev::Device& dev) {
    if (sonic_unit_j < 0.0) {
      sonic_unit_j = twin() ? flex::sonic_worst_commit_energy(*image.dense, dev.cost()) : 0.0;
    }
    return sonic_unit_j;
  }

  void ensure_calibrated(const ace::CompiledModel& armed, const dev::DeviceConfig& dcfg) {
    if (cmpl != nullptr) return;
    if (slot == nullptr) slot = std::make_shared<CompletionSlot>();
    const ace::CompiledModel& comp = provisioned ? *image.compressed : armed;
    cmpl = &slot->get(comp, provisioned ? image.dense : nullptr, dcfg);
  }

  // THE static burst-vs-checkpoint constraint, shared by per-boot
  // selection (both modes) and the admission predictors so they cannot
  // drift apart: the tier the energy geometry pins the device to, -1
  // when the burst funds FLEX. A burst that cannot fund FLEX's worst-case
  // checkpoint (with margin) pins the device to fine-grained loop
  // continuation (sonic). One that cannot fund even SONIC's smallest
  // committable unit (same margin) livelocks every per-element strategy:
  // the device is statically a tile device. That band lies strictly
  // inside the sonic one, so it is checked first.
  int forced_tier(const AdaptiveSpec& spec) const {
    if (sonic_unit_j > 0.0 && image.burst_energy_j < spec.ckpt_margin * sonic_unit_j) {
      return at("tile");
    }
    if (twin() && image.burst_energy_j < spec.ckpt_margin * flex_ckpt_j) return at("sonic");
    return -1;
  }

  // The admission predictors' one loop: the least f(tier) over the
  // calibrated tiers the forced tier allows (all of them when none is
  // forced). Calibrates, and computes the image's FLEX checkpoint and
  // SONIC commit budgets, on first use.
  template <class F>
  double min_over_allowed(const dev::Device& dev, const ace::CompiledModel& armed,
                          const AdaptiveSpec& spec, F&& f) {
    ensure_calibrated(armed, dev.config());
    flex_ckpt(armed, dev);
    sonic_unit(dev);
    const int forced = forced_tier(spec);
    double best = std::numeric_limits<double>::infinity();
    for (const auto& t : cmpl->tiers()) {
      if (forced >= 0 && t.key != tiers[static_cast<std::size_t>(forced)].key) continue;
      best = std::min(best, f(t));
    }
    return best;
  }

  // Per-cycle overhead estimate for a tier's completion prediction: the
  // FLEX tier pays a checkpoint write per warned cycle (worst-case prior,
  // refined by the observed per-cycle checkpoint energy); everyone else's
  // steady-state commit traffic is already in the calibrated energy.
  double overhead_for(const std::string& key) const {
    if (key != "flex") return 0.0;
    return ovh_flex_n > 0 ? ovh_flex_ema : flex_ckpt_j;
  }

  // The sel=deadline rule: the cheapest tier (by calibrated energy) whose
  // predicted completion beats the time the job has left; when none does,
  // the fastest-predicted tier still gets its shot (a late answer beats
  // no answer — admission control is where hopeless releases are shed).
  int decide_deadline(flex::StepContext& ctx) {
    ensure_calibrated(ctx.cm, ctx.dev.config());
    double remaining = std::numeric_limits<double>::infinity();
    const dev::PowerSupply* sup = ctx.dev.supply();
    const double now_s = sup != nullptr ? sup->now() : 0.0;
    if (std::isfinite(ctx.opts.deadline_s) && sup != nullptr) {
      remaining = ctx.opts.deadline_s - now_s;
    }

    // Ladder indices in calibrated-energy order (cheapest first).
    std::vector<int> order;
    for (int i = 0; i < static_cast<int>(tiers.size()); ++i) order.push_back(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto* ta = cmpl->tier(tiers[static_cast<std::size_t>(a)].key);
      const auto* tb = cmpl->tier(tiers[static_cast<std::size_t>(b)].key);
      const double ea = ta != nullptr ? ta->energy_j : std::numeric_limits<double>::infinity();
      const double eb = tb != nullptr ? tb->energy_j : std::numeric_limits<double>::infinity();
      return ea != eb ? ea < eb : a < b;
    });

    int fastest = at("flex");
    double fastest_t = std::numeric_limits<double>::infinity();
    for (const int i : order) {
      const auto* ct = cmpl->tier(tiers[static_cast<std::size_t>(i)].key);
      if (ct == nullptr) continue;
      const double t = cmpl->predict_curve_s(*ct, image.burst_energy_j, *fc, now_s,
                                             overhead_for(ct->key));
      if (t < fastest_t) {
        fastest_t = t;
        fastest = i;
      }
      if (std::isfinite(t) && t <= remaining) return i;
    }
    return fastest;
  }

  int decide_fresh(const AdaptiveSpec& spec, flex::StepContext& ctx) {
    // Static energy geometry first, in both modes.
    if (const int forced = forced_tier(spec); forced >= 0) return forced;
    if (spec.sel == TierSelect::kDeadline) return decide_deadline(ctx);
    // Ask the forecaster about NOW, not about its last sample: a locked
    // periodic forecast reads the current wall-clock phase even when the
    // device idled through a phase transition without observing it.
    const dev::PowerSupply* sup = ctx.dev.supply();
    const double w = sup != nullptr ? fc->forecast_at_w(sup->now()) : fc->forecast_w();
    if (twin() && w >= spec.full_w) return at("base");
    if (w >= spec.rich_w) return at("ace");
    return at("flex");
  }

  // Activates tiers[cur] with a fresh inner boot. The fresh flag is
  // sticky across a brown-out mid-boot (inner_fresh_pending), mirroring
  // the executor's own fresh_ handling: a torn fresh boot is retried
  // fresh, never resumed, so a previous job's stale cursors can never
  // leak into this one.
  void activate(flex::StepContext& ctx) {
    inner_fresh_pending = true;
    Tier& t = tiers[static_cast<std::size_t>(cur)];
    const ace::CompiledModel& cm = resolve_cm(ctx, t);
    ctx.st.units_total = t.policy->units_total(cm);
    flex::StepContext sub{ctx.dev, cm, ctx.input, ctx.opts, ctx.st};
    t.policy->on_boot(sub, true);
    if (ctx.dev.browned_out()) return;
    inner_fresh_pending = false;
  }
};

AdaptivePolicy::AdaptivePolicy(AdaptiveSpec spec)
    : impl_(std::make_unique<Impl>()), spec_(std::move(spec)) {
  // parse_adaptive_spec range-checks every key; this guards specs built
  // in code.
  check(spec_.rich_w >= 0.0 && spec_.full_w >= 0.0 && spec_.ckpt_margin >= 0.0 &&
            spec_.admit_slack_s >= 0.0 && spec_.demote_boots >= 1,
        "adaptive: bad spec");
  impl_->fc = make_forecaster(spec_.forecaster);  // throws on a bad spec
  impl_->rebuild();
}

AdaptivePolicy::~AdaptivePolicy() = default;

void AdaptivePolicy::provision(const DeploymentImage& image) {
  check(image.compressed != nullptr, "adaptive: provision needs the compressed image");
  impl_->image = image;
  impl_->provisioned = true;
  impl_->rebuild();
}

void AdaptivePolicy::on_boot(flex::StepContext& ctx, bool fresh) {
  Impl& s = *impl_;
  s.ensure_ready(ctx);
  s.cycle_e0 = ctx.dev.trace().total_energy();
  if (const dev::PowerSupply* sup = ctx.dev.supply()) s.cycle_t0 = sup->now();
  if (fresh) {
    s.last_off_s = ctx.st.off_seconds;
    s.last_units = ctx.st.units_executed;
    s.last_ckpts = ctx.st.checkpoints;
    s.last_ckpt_e = ctx.st.checkpoint_energy_j;
    s.no_progress = 0;
    s.force_demote = false;
    s.cur = s.decide_fresh(spec_, ctx);
    s.log_decision(ctx, s.cur, /*demote=*/false);
    obs::record(ctx.opts.trace, flex::obs_now_s(ctx.dev),
                obs::EventKind::kTierSelect, s.cur);
    s.activate(ctx);
    return;
  }

  // A power cycle died. The recharge gap is the scheduler's harvest
  // sensor: refilling the burst energy took `gap` seconds, so the
  // harvester averaged burst/gap watts — one forecaster sample,
  // timestamped at the gap's midpoint (the instant the average income
  // actually describes; end-stamping would smear a whole solar night
  // onto its dawn).
  const double gap = ctx.st.off_seconds - s.last_off_s;
  s.last_off_s = ctx.st.off_seconds;
  if (gap > 0.0 && std::isfinite(s.image.burst_energy_j)) {
    const dev::PowerSupply* sup = ctx.dev.supply();
    if (sup != nullptr) {
      s.fc->record_at(s.image.burst_energy_j / gap, sup->now() - 0.5 * gap);
    } else {
      s.fc->record(s.image.burst_energy_j / gap);
    }
    s.note_forecast_lock(ctx);
  }

  // A persistent tier made progress if it banked anything at all this
  // cycle: a unit commit, or a completed checkpoint (FLEX's BCM tiers
  // advance by sub-unit stages that only checkpoints witness; a
  // checkpoint that tore mid-write was never counted).
  const Tier& cur = s.tiers[static_cast<std::size_t>(s.cur)];
  const bool progressed =
      cur.persistent && (ctx.st.units_executed > s.last_units ||
                         ctx.st.checkpoints > s.last_ckpts);
  // Observed boot overhead: the checkpoint energy this power cycle spent
  // banking its state is income the completion model must write off per
  // cycle. EMA so a single eager-monitor burst does not dominate.
  if (cur.key == "flex" && ctx.st.checkpoints > s.last_ckpts) {
    const double sample = ctx.st.checkpoint_energy_j - s.last_ckpt_e;
    s.ovh_flex_ema = s.ovh_flex_n == 0 ? sample : 0.7 * s.ovh_flex_ema + 0.3 * sample;
    ++s.ovh_flex_n;
  }
  s.last_units = ctx.st.units_executed;
  s.last_ckpts = ctx.st.checkpoints;
  s.last_ckpt_e = ctx.st.checkpoint_energy_j;
  if (progressed) {
    s.no_progress = 0;
  } else {
    ++s.no_progress;
  }

  int next = s.cur;
  if (s.force_demote || s.no_progress >= spec_.demote_boots) {
    // The tier is stuck (its own livelock detector fired, or it has made
    // no forward progress for demote_boots cycles): one rung leaner.
    next = std::min(s.cur + 1, static_cast<int>(s.tiers.size()) - 1);
    s.force_demote = false;
    s.log_decision(ctx, next, /*demote=*/true);
    obs::record(ctx.opts.trace, flex::obs_now_s(ctx.dev),
                obs::EventKind::kTierDemote, next, s.cur);
  } else if (!cur.persistent) {
    // Restart-from-scratch tiers bank nothing, so every boot is free to
    // re-decide from the live forecast (this is where a mis-forecast
    // rich start degrades to FLEX).
    next = s.decide_fresh(spec_, ctx);
    s.log_decision(ctx, next, /*demote=*/false);
  }

  if (next != s.cur) {
    ++s.switches;
    obs::record(ctx.opts.trace, flex::obs_now_s(ctx.dev),
                obs::EventKind::kTierSwitch, next, s.cur);
    s.no_progress = 0;
    s.cur = next;
    s.activate(ctx);  // tier progress formats are incompatible: restart
  } else if (s.inner_fresh_pending) {
    s.activate(ctx);  // the switch boot itself browned out: retry fresh
  } else {
    Tier& t = s.tiers[static_cast<std::size_t>(s.cur)];
    flex::StepContext sub{ctx.dev, s.resolve_cm(ctx, t), ctx.input, ctx.opts, ctx.st};
    t.policy->on_boot(sub, false);
  }
}

bool AdaptivePolicy::step(flex::StepContext& ctx) {
  Impl& s = *impl_;
  Tier& t = s.tiers[static_cast<std::size_t>(s.cur)];
  flex::StepContext sub{ctx.dev, s.resolve_cm(ctx, t), ctx.input, ctx.opts, ctx.st};
  const bool done = t.policy->step(sub);
  if (done) observe_success_income(ctx);
  return done;
}

void AdaptivePolicy::observe_success_income(flex::StepContext& ctx) {
  // Success-path income sensor. Recharge gaps only report income when
  // power FAILS; a cycle that completes the inference without browning
  // out would leave the forecaster blind to rich phases (a solar day
  // where income covers the draw produces no reboots, hence no gap
  // samples, hence an eternally-stale "night" forecast). But a completed
  // cycle is evidence too: drawing e_cycle over t_cycle from a buffer
  // holding one burst means the harvester supplied at least
  // (e_cycle - burst) / t_cycle watts alongside the draw — a lower
  // bound, recorded at the cycle's midpoint like every other sample.
  Impl& s = *impl_;
  if (!std::isfinite(s.image.burst_energy_j)) return;
  const dev::PowerSupply* sup = ctx.dev.supply();
  if (sup == nullptr) return;
  const double e_cycle = ctx.dev.trace().total_energy() - s.cycle_e0;
  const double t_cycle = sup->now() - s.cycle_t0;
  if (t_cycle <= 0.0 || e_cycle <= s.image.burst_energy_j) return;
  s.fc->record_at((e_cycle - s.image.burst_energy_j) / t_cycle,
                  sup->now() - 0.5 * t_cycle);
  s.note_forecast_lock(ctx);
}

bool AdaptivePolicy::retry_after_failure(flex::StepContext& ctx, double attempt_cycles) {
  Impl& s = *impl_;
  Tier& t = s.tiers[static_cast<std::size_t>(s.cur)];
  flex::StepContext sub{ctx.dev, s.resolve_cm(ctx, t), ctx.input, ctx.opts, ctx.st};
  if (t.policy->retry_after_failure(sub, attempt_cycles)) return true;
  // The tier gave up (ACE's livelock detector). With a leaner rung left
  // the run is not dead — demote at the next boot instead of DNF.
  if (s.cur + 1 < static_cast<int>(s.tiers.size())) {
    s.force_demote = true;
    return true;
  }
  return false;
}

const ace::CompiledModel& AdaptivePolicy::output_model(const ace::CompiledModel& armed) const {
  const Impl& s = *impl_;
  if (s.cur < 0 || !s.provisioned) return armed;
  const Tier& t = s.tiers[static_cast<std::size_t>(s.cur)];
  return *(t.dense_variant ? s.image.dense : s.image.compressed);
}

std::string AdaptivePolicy::current_runtime() const {
  const Impl& s = *impl_;
  return s.cur < 0 ? "" : std::string(s.tiers[static_cast<std::size_t>(s.cur)].key);
}

bool AdaptivePolicy::on_dense_model() const {
  const Impl& s = *impl_;
  return s.cur >= 0 && s.provisioned &&
         s.tiers[static_cast<std::size_t>(s.cur)].dense_variant;
}

long AdaptivePolicy::tier_switches() const { return impl_->switches; }

const HarvestForecaster& AdaptivePolicy::forecaster() const { return *impl_->fc; }

double AdaptivePolicy::predict_best_completion_s(const dev::Device& dev,
                                                 const ace::CompiledModel& armed) {
  Impl& s = *impl_;
  const dev::PowerSupply* sup = dev.supply();
  const double now_s = sup != nullptr ? sup->now() : 0.0;
  return s.min_over_allowed(dev, armed, spec_, [&](const CompletionModel::Tier& t) {
    return s.cmpl->predict_curve_s(t, s.image.burst_energy_j, *s.fc, now_s,
                                   s.overhead_for(t.key));
  });
}

double AdaptivePolicy::predict_optimistic_s(const dev::Device& dev,
                                            const ace::CompiledModel& armed) {
  return impl_->min_over_allowed(dev, armed, spec_,
                                 [](const CompletionModel::Tier& t) { return t.on_s; });
}

const CompletionModel* AdaptivePolicy::completion_model() const {
  return impl_->cmpl;
}

double AdaptivePolicy::reclaimable_energy_j() const {
  return impl_->cmpl != nullptr ? impl_->cmpl->min_energy_j() : 0.0;
}

void AdaptivePolicy::set_decision_log(std::vector<TierDecision>* log) {
  impl_->dlog = log;
}

std::unique_ptr<flex::RuntimePolicy> make_adaptive_policy(AdaptiveSpec spec) {
  return std::make_unique<AdaptivePolicy>(std::move(spec));
}

bool provision_adaptive(flex::RuntimePolicy& policy, const DeploymentImage& image) {
  auto* ap = dynamic_cast<AdaptivePolicy*>(&policy);
  if (ap == nullptr) return false;
  ap->provision(image);
  return true;
}

double provision_deployment(flex::RuntimePolicy& policy, const dev::CostModel& cost,
                            const ace::CompiledModel& primary,
                            const ace::CompiledModel* dense, double burst_energy_j,
                            std::shared_ptr<CompletionSlot> completion) {
  double worst_ck = flex::worst_checkpoint_energy(primary, cost);
  if (dense != nullptr) {
    worst_ck = std::max(worst_ck, flex::worst_checkpoint_energy(*dense, cost));
  }
  DeploymentImage img;
  img.compressed = &primary;
  img.dense = dense;
  img.burst_energy_j = burst_energy_j;
  img.completion = std::move(completion);
  provision_adaptive(policy, img);
  return worst_ck;
}

const AdaptivePolicy* as_adaptive(const flex::RuntimePolicy* policy) {
  return dynamic_cast<const AdaptivePolicy*>(policy);
}

AdaptivePolicy* as_adaptive(flex::RuntimePolicy* policy) {
  return dynamic_cast<AdaptivePolicy*>(policy);
}

AdaptiveSpec parse_adaptive_spec(const std::string& spec) {
  check_input(spec.substr(0, spec.find(':')) == "adaptive",
              "adaptive spec \"" + spec + "\": expected adaptive[:key=value,...]");
  SpecArgs a(spec);
  AdaptiveSpec s;

  // Forecaster sub-spec assembled from flat keys (fc picks the kind;
  // prior/alpha/n/w forward verbatim so the forecaster factory validates
  // them in one place).
  std::string fspec = a.str("fc", "ema");
  std::string fargs;
  for (const char* key : {"prior", "alpha", "n", "w", "bins", "conf"}) {
    const std::string v = a.str(key, "");
    if (v.empty()) continue;
    fargs += (fargs.empty() ? "" : ",") + std::string(key) + "=" + v;
  }
  if (!fargs.empty()) fspec += ":" + fargs;
  s.forecaster = fspec;

  const std::string sel = a.str("sel", "income");
  if (sel == "income") {
    s.sel = TierSelect::kIncome;
  } else if (sel == "deadline") {
    s.sel = TierSelect::kDeadline;
  } else {
    fail_input("adaptive spec \"" + spec + "\": sel must be income or deadline");
  }
  const std::string admit = a.str("admit", "all");
  if (admit == "all") {
    s.admit = Admission::kAll;
  } else if (admit == "budget") {
    s.admit = Admission::kBudget;
  } else {
    fail_input("adaptive spec \"" + spec + "\": admit must be all or budget");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  s.admit_slack_s = a.num("slack", s.admit_slack_s, 0.0, kInf);
  s.probe_skips = a.integer("probe", s.probe_skips, 1, 1'000'000);

  s.rich_w = a.num("rich", s.rich_w, 0.0, kInf);
  s.full_w = a.num("full", s.full_w, 0.0, kInf);
  s.ckpt_margin = a.num("ckpt_margin", s.ckpt_margin, 0.0, kInf);
  s.demote_boots = a.integer("demote", s.demote_boots, 1, 1'000'000);
  a.finish();
  make_forecaster(s.forecaster);  // validate eagerly (throws on bad kinds/values)
  return s;
}

}  // namespace ehdnn::sched
