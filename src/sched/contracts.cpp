#include "sched/contracts.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "core/ace/compiled_model.h"
#include "core/flex/runtime.h"
#include "device/device.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/capacitor.h"
#include "power/factory.h"
#include "power/monitor.h"
#include "quant/quantize.h"
#include "util/check.h"
#include "util/format.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"

namespace ehdnn::sched::contract {

namespace {

// ---------------------------------------------------------------- fixture
//
// The enumeration fixture: one tiny compressed/dense deployment pair
// (the sched test suite's tiny model geometry — every kernel kind, small
// enough for thousands of runs), one deterministic input, and the
// calibrated per-tier costs every world shares. Worlds differ only in
// their power geometry and agenda, so this is computed once.

nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

quant::QuantModel tiny_compressed(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::BcmDense>(2 * 4 * 4, 16, 16)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

quant::QuantModel tiny_dense(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::Dense>(2 * 4 * 4, 16)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

struct Fixture {
  quant::QuantModel qm_c;
  quant::QuantModel qm_d;
  std::size_t fram_words = 0;
  std::vector<fx::q15_t> input;  // one deterministic input, reused per job
  CompletionModel cmpl;          // shared calibration (scratch, continuous)
  std::map<std::string, int> energy_rank;  // decide_deadline's tier order
  std::map<std::string, int> ladder_rank;  // richest (0) to leanest (4)
};

const Fixture& fixture() {
  static const Fixture fx_ = [] {
    Fixture f;
    Rng rng(0x5eed);
    f.qm_c = tiny_compressed(rng);
    f.qm_d = tiny_dense(rng);
    // FRAM sized like the fleet does it: compile both variants co-resident
    // on a scratch device, keep the high-water mark plus slack.
    {
      dev::DeviceConfig big;
      big.fram_words = 1 << 22;
      dev::Device scratch(big);
      ace::compile(f.qm_c, scratch);
      const std::size_t used =
          ace::compile(f.qm_d, scratch, /*co_resident=*/true).fram_words_used;
      f.fram_words = used + 1024;
    }
    const std::size_t in_size = f.qm_c.layers.front().in_size();
    f.input.resize(in_size);
    Rng in_rng(0xf1ee7);
    for (auto& v : f.input) v = static_cast<fx::q15_t>(in_rng.next_u64());
    // The shared calibration: identical to what every world's policy
    // computes lazily (scratch replica, bench power), used here only to
    // rank tiers by calibrated energy for the CONTRACT-3 deadline check.
    {
      dev::DeviceConfig dcfg;
      dcfg.fram_words = f.fram_words;
      dev::Device scratch(dcfg);
      const ace::CompiledModel cm_c = ace::compile(f.qm_c, scratch);
      const ace::CompiledModel cm_d =
          ace::compile(f.qm_d, scratch, /*co_resident=*/true);
      f.cmpl = CompletionModel::calibrate(cm_c, &cm_d, dcfg);
    }
    std::vector<int> order(f.cmpl.tiers().size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double ea = f.cmpl.tiers()[static_cast<std::size_t>(a)].energy_j;
      const double eb = f.cmpl.tiers()[static_cast<std::size_t>(b)].energy_j;
      return ea != eb ? ea < eb : a < b;
    });
    for (std::size_t r = 0; r < order.size(); ++r) {
      f.energy_rank[f.cmpl.tiers()[static_cast<std::size_t>(order[r])].key] =
          static_cast<int>(r);
    }
    f.ladder_rank = {{"base", 0}, {"ace", 1}, {"flex", 2}, {"sonic", 3}, {"tile", 4}};
    return f;
  }();
  return fx_;
}

// ---------------------------------------------------------- serialization

// Splits "key=value" at the FIRST '=' (values may contain '=' again:
// source/sched specs).
std::pair<std::string, std::string> split_kv(const std::string& tok,
                                             const std::string& line) {
  const std::size_t eq = tok.find('=');
  ehdnn::check(eq != std::string::npos && eq > 0,
        "contract world \"" + line + "\": expected key=value, got \"" + tok + "\"");
  return {tok.substr(0, eq), tok.substr(eq + 1)};
}

double parse_double(const std::string& v, const std::string& line) {
  const auto d = ehdnn::parse_double(v);
  ehdnn::check(d.has_value(), "contract world \"" + line + "\": bad number \"" + v + "\"");
  return *d;
}

int parse_int(const std::string& v, const std::string& line) {
  const auto n = ehdnn::parse_int(v, -999'999'999, 999'999'999);
  ehdnn::check(n.has_value(), "contract world \"" + line + "\": bad integer \"" + v + "\"");
  return *n;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

}  // namespace

std::string serialize_world(const World& w) {
  std::string s = "world id=" + std::to_string(w.id);
  s += " src=" + w.source;
  s += " cap=" + fmt_g17(w.cap_f);
  s += " von=" + fmt_g17(w.v_on);
  s += " period=" + fmt_g17(w.period_s);
  s += " dl=" + fmt_g17(w.deadline_s);
  s += " jobs=" + std::to_string(w.jobs);
  s += " sched=" + w.sched;
  return s;
}

std::string serialize_world(const RelockWorld& w) {
  std::string s = "relock id=" + std::to_string(w.id);
  s += " p1=" + fmt_g17(w.p1_s);
  s += " p2=" + fmt_g17(w.p2_s);
  s += " hi=" + fmt_g17(w.hi_w);
  s += " lo=" + fmt_g17(w.lo_w);
  return s;
}

World parse_world(const std::string& line) {
  const std::vector<std::string> toks = tokens_of(line);
  ehdnn::check(!toks.empty() && toks.front() == "world",
        "contract world \"" + line + "\": expected a line starting with 'world'");
  World w;
  int seen = 0;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const auto [k, v] = split_kv(toks[i], line);
    if (k == "id") {
      w.id = parse_int(v, line);
    } else if (k == "src") {
      w.source = v;
    } else if (k == "cap") {
      w.cap_f = parse_double(v, line);
    } else if (k == "von") {
      w.v_on = parse_double(v, line);
    } else if (k == "period") {
      w.period_s = parse_double(v, line);
    } else if (k == "dl") {
      w.deadline_s = parse_double(v, line);
    } else if (k == "jobs") {
      w.jobs = parse_int(v, line);
    } else if (k == "sched") {
      w.sched = v;
    } else {
      fail("contract world \"" + line + "\": unknown key \"" + k + "\"");
    }
    ++seen;
  }
  ehdnn::check(seen == 8, "contract world \"" + line + "\": expected 8 key=value fields");
  ehdnn::check(!w.source.empty() && !w.sched.empty() && w.jobs >= 1 && w.cap_f > 0.0 &&
            w.v_on > 0.0 && w.period_s > 0.0 && w.deadline_s > 0.0,
        "contract world \"" + line + "\": out-of-range field");
  return w;
}

RelockWorld parse_relock_world(const std::string& line) {
  const std::vector<std::string> toks = tokens_of(line);
  ehdnn::check(!toks.empty() && toks.front() == "relock",
        "contract world \"" + line + "\": expected a line starting with 'relock'");
  RelockWorld w;
  int seen = 0;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const auto [k, v] = split_kv(toks[i], line);
    if (k == "id") {
      w.id = parse_int(v, line);
    } else if (k == "p1") {
      w.p1_s = parse_double(v, line);
    } else if (k == "p2") {
      w.p2_s = parse_double(v, line);
    } else if (k == "hi") {
      w.hi_w = parse_double(v, line);
    } else if (k == "lo") {
      w.lo_w = parse_double(v, line);
    } else {
      fail("contract world \"" + line + "\": unknown key \"" + k + "\"");
    }
    ++seen;
  }
  ehdnn::check(seen == 5, "contract world \"" + line + "\": expected 5 key=value fields");
  ehdnn::check(w.p1_s > 0.0 && w.p2_s > 0.0 && w.p1_s != w.p2_s && w.hi_w > w.lo_w &&
            w.lo_w >= 0.0,
        "contract world \"" + line + "\": out-of-range field");
  return w;
}

// ------------------------------------------------------------------ grids
//
// Axis values are chosen against the tiny deployment's calibrated costs
// (contract_checker --calibration prints them; CONTRACTS.md records the
// numbers): incomes straddle the tiers' continuous draw rates, capacitor
// size x v_on spans bursts from "several per inference" to "one burst
// covers it", job periods and deadline fractions straddle the per-tier
// completion times so every admission branch (run / certain-skip /
// forecast-skip / probe) is exercised somewhere in the grid.

std::vector<World> world_grid(Depth d) {
  const bool full = d == Depth::kFull;
  // Income shapes: constants (lean / mid) plus square waves whose periods
  // the periodic forecaster can lock within a run, with lean-to-blackout
  // lows. Square periods sit well above the job periods so whole jobs
  // land inside single phases.
  // The tiny fixture draws ~4.2 mW continuous on the compressed tiers and
  // needs ~5.5 uJ per inference (contract_checker --calibration): incomes
  // straddle the draw rate, bursts span 0.13x..1.1x the inference energy
  // (multi-cycle through single-burst), and deadline fractions straddle
  // the 1.3 ms..~500 ms per-world completion range.
  const std::vector<std::string> sources =
      full ? std::vector<std::string>{"const:w=0.12e-3",
                                      "const:w=0.6e-3",
                                      "const:w=2.5e-3",
                                      "square:hi=5e-3,lo=0.05e-3,period=0.8,duty=0.5",
                                      "square:hi=4e-3,lo=0.2e-3,period=1.6,duty=0.25",
                                      "square:hi=6e-3,lo=0.02e-3,period=0.4,duty=0.5"}
           : std::vector<std::string>{"const:w=0.12e-3",
                                      "const:w=2.5e-3",
                                      "square:hi=5e-3,lo=0.05e-3,period=0.8,duty=0.5",
                                      "square:hi=6e-3,lo=0.02e-3,period=0.4,duty=0.5"};
  const std::vector<double> caps =
      full ? std::vector<double>{0.33e-6, 0.68e-6, 1.5e-6}
           : std::vector<double>{0.33e-6, 1.5e-6};
  const std::vector<double> vons =
      full ? std::vector<double>{3.0, 3.3, 3.6} : std::vector<double>{3.0, 3.6};
  const std::vector<double> periods =
      full ? std::vector<double>{0.05, 0.15, 0.4} : std::vector<double>{0.05, 0.4};
  const std::vector<double> dl_fracs =
      full ? std::vector<double>{0.3, 0.7, 1.5, 3.0} : std::vector<double>{0.3, 1.5};
  const std::vector<std::string> scheds = {
      "adaptive:sel=deadline,admit=budget,fc=periodic,conf=0.55,probe=2",
      "adaptive:sel=deadline,admit=budget,fc=ema,alpha=0.5,probe=3,slack=0.02",
      "adaptive:sel=income,admit=all,fc=ema,alpha=0.6,rich=1.5e-3",
  };
  std::vector<World> out;
  int id = 0;
  for (const auto& src : sources) {
    for (const double cap : caps) {
      for (const double von : vons) {
        for (const double period : periods) {
          for (const double frac : dl_fracs) {
            for (const auto& sched : scheds) {
              World w;
              w.id = id++;
              w.source = src;
              w.cap_f = cap;
              w.v_on = von;
              w.period_s = period;
              w.deadline_s = frac * period;
              w.jobs = 6;
              w.sched = sched;
              out.push_back(std::move(w));
            }
          }
        }
      }
    }
  }
  // Lock worlds: long-horizon runs tuned so the ON-DEVICE periodic
  // forecaster confirms a lock mid-run, exercising stage-2 (FORECAST)
  // admission and the probe valve. The recipe (verified empirically, see
  // CONTRACTS.md): a capacitor too small for even a full charge to cover
  // one inference (everything multi-cycles, so recharge gaps sample the
  // true income all run long), a square hi BELOW the ~4.2 mW draw (the
  // device keeps power-cycling in both phases), a job period
  // incommensurate with the source period (releases sweep the phase),
  // and enough jobs to span >= 3 source periods before the lock gate.
  const std::vector<std::string> lock_sources =
      full ? std::vector<std::string>{"square:hi=2e-3,lo=0.2e-3,period=0.4,duty=0.5",
                                      "square:hi=2.5e-3,lo=0.05e-3,period=0.6,duty=0.5"}
           : std::vector<std::string>{"square:hi=2e-3,lo=0.2e-3,period=0.4,duty=0.5"};
  const std::vector<double> lock_vons =
      full ? std::vector<double>{3.0, 3.3} : std::vector<double>{3.0};
  for (const auto& src : lock_sources) {
    for (const double von : lock_vons) {
      for (const double frac : {0.3, 0.7}) {
        World w;
        w.id = id++;
        w.source = src;
        w.cap_f = 0.33e-6;
        w.v_on = von;
        w.period_s = 0.07;
        w.deadline_s = frac * w.period_s;
        w.jobs = 40;
        w.sched = scheds[0];  // the periodic-forecaster deadline sched
        out.push_back(std::move(w));
      }
    }
  }
  return out;
}

std::vector<RelockWorld> relock_grid(Depth d) {
  const bool full = d == Depth::kFull;
  const std::vector<double> periods = {0.4, 0.9, 2.0};
  const std::vector<std::pair<double, double>> levels =
      full ? std::vector<std::pair<double, double>>{{3e-3, 0.05e-3},
                                                    {6e-3, 0.4e-3},
                                                    {3e-3, 0.4e-3},
                                                    {6e-3, 0.05e-3}}
           : std::vector<std::pair<double, double>>{{3e-3, 0.05e-3}};
  std::vector<RelockWorld> out;
  int id = 0;
  for (const double p1 : periods) {
    for (const double p2 : periods) {
      if (p1 == p2) continue;
      for (const auto& [hi, lo] : levels) {
        RelockWorld w;
        w.id = id++;
        w.p1_s = p1;
        w.p2_s = p2;
        w.hi_w = hi;
        w.lo_w = lo;
        out.push_back(w);
      }
    }
  }
  return out;
}

// ------------------------------------------------------------ world runs

namespace {

// Slice budget per single run. Worlds terminate on their own (futile-boot
// watchdog + starvation guard); the budget is a harness backstop that
// turns a would-be hang into a contract-0 violation, never expected on
// the committed grids.
constexpr long kMaxStepsPerRun = 4'000'000;

struct SingleRun {
  std::vector<JobRecord> records;
  std::vector<TierDecision> decisions;
  long steps = 0;
  bool aborted = false;
};

SingleRun run_single(const World& w, bool force_admit_all) {
  const Fixture& fx_ = fixture();
  SingleRun out;

  const std::unique_ptr<power::HarvestSource> src = power::make_harvest_source(w.source);
  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = w.cap_f;
  ccfg.v_on = w.v_on;
  power::CapacitorSupply supply(*src, ccfg);

  dev::DeviceConfig dcfg;
  dcfg.fram_words = fx_.fram_words;
  dev::Device dev(dcfg);
  dev.attach_supply(&supply);
  const ace::CompiledModel cm_c = ace::compile(fx_.qm_c, dev);
  const ace::CompiledModel cm_d = ace::compile(fx_.qm_d, dev, /*co_resident=*/true);

  AdaptiveSpec spec = parse_adaptive_spec(w.sched);
  if (force_admit_all) spec.admit = Admission::kAll;
  std::unique_ptr<flex::RuntimePolicy> policy = make_adaptive_policy(std::move(spec));
  const double worst_ck =
      provision_deployment(*policy, dev.cost(), cm_c, &cm_d, supply.burst_energy());

  flex::RunOptions opts;
  opts.max_futile_boots = 400;
  opts.flex_v_warn = power::warn_voltage_for(supply.config(), worst_ck + 5e-6, 3.0);

  AdaptivePolicy* ap = as_adaptive(policy.get());
  ehdnn::check(ap != nullptr, "contract world: sched spec must be adaptive");
  ap->set_decision_log(&out.decisions);

  DeviceAgenda agenda;
  agenda.runtime = "adaptive";
  agenda.jobs = w.jobs;
  agenda.period_s = w.period_s;
  agenda.deadline_s = w.deadline_s;
  const std::vector<std::vector<fx::q15_t>> inputs(
      static_cast<std::size_t>(w.jobs), fx_.input);

  JobQueue q(dev, *policy, cm_c, opts, agenda, &inputs);
  while (q.step()) {
    if (q.steps() > kMaxStepsPerRun) {
      out.aborted = true;
      break;
    }
  }
  out.records = q.records();
  out.steps = q.steps();
  return out;
}

}  // namespace

WorldResult run_world(const World& w) {
  WorldResult r;
  const AdaptiveSpec spec = parse_adaptive_spec(w.sched);
  SingleRun budget = run_single(w, /*force_admit_all=*/false);
  // admit=all worlds are their own twin: one run, identical verdicts.
  const bool twin_needed = spec.admit == Admission::kBudget;
  SingleRun all = twin_needed ? run_single(w, /*force_admit_all=*/true)
                              : SingleRun{budget.records, {}, budget.steps, budget.aborted};
  r.budget_steps = budget.steps;
  r.all_steps = all.steps;
  r.budget_decisions = std::move(budget.decisions);
  if (budget.aborted || all.aborted) {
    r.jobs.clear();
    r.budget_steps = budget.aborted ? -1 : r.budget_steps;
    r.all_steps = all.aborted ? -1 : r.all_steps;
    return r;
  }
  const std::size_t n = std::min(budget.records.size(), all.records.size());
  for (std::size_t j = 0; j < n; ++j) {
    JobOutcome o;
    o.job = static_cast<int>(j);
    o.budget_skipped = budget.records[j].skipped_infeasible;
    o.budget_stage = budget.records[j].skip_stage;
    o.budget_met = budget.records[j].met_deadline;
    o.all_met = all.records[j].met_deadline;
    r.jobs.push_back(o);
  }
  return r;
}

// ------------------------------------------------------------- contracts

namespace {

// CONTRACT-1 + CONTRACT-2b + stats over one world's twin evidence.
void check_world(const World& w, const WorldResult& res, const AdaptiveSpec& spec,
                 Report& rep) {
  const std::string ser = serialize_world(w);
  Stats& st = rep.stats;
  ++st.worlds;
  if (res.budget_steps < 0 || res.all_steps < 0) {
    rep.violations.push_back(
        {0, ser, "harness: slice budget exceeded before the agenda finished"});
    return;
  }
  int streak = 0;  // consecutive skips so far (position of the next skip)
  for (const JobOutcome& o : res.jobs) {
    ++st.jobs;
    if (!o.budget_skipped) {
      if (streak > 0) ++st.skip_streaks;
      streak = 0;
      ++st.run_jobs;
      if (o.budget_met) ++st.met_budget;
      if (o.all_met) ++st.met_all;
      continue;
    }
    if (o.all_met) ++st.met_all;
    if (o.budget_stage == 1) ++st.skips_stage1;
    if (o.budget_stage == 2) ++st.skips_stage2;
    // CONTRACT-2b: the probe valve admits every release once probe_skips
    // consecutive skips have accrued — a stage-2 (forecast) skip at streak
    // position >= probe_skips means the valve failed and a stale forecast
    // could refuse work forever.
    if (o.budget_stage == 2 && streak >= spec.probe_skips) {
      rep.violations.push_back(
          {2, ser,
           "job " + std::to_string(o.job) + ": forecast skip at streak position " +
               std::to_string(streak) + " >= probe=" + std::to_string(spec.probe_skips)});
    }
    // CONTRACT-1: a skipped job the admit-all twin completed in deadline.
    // Stage 2 is the documented exception class (forecasts may be wrong;
    // the probe valve bounds the damage). Stage 1 claims CERTAINTY — the
    // twin completing in deadline disproves it: a real violation.
    if (o.all_met) {
      if (o.budget_stage == 2) {
        ++st.excused_probe;
      } else {
        rep.violations.push_back(
            {1, ser,
             "job " + std::to_string(o.job) + ": stage-" +
                 std::to_string(o.budget_stage) +
                 " skip but the admit-all twin met the deadline"});
      }
    }
    ++streak;
  }
  if (streak > 0) ++st.skip_streaks;
}

// CONTRACT-3 over one run's decision log.
void check_stability(const World& w, const std::vector<TierDecision>& ds,
                     const AdaptiveSpec& spec, Report& rep) {
  const Fixture& fx_ = fixture();
  const std::string ser = serialize_world(w);
  Stats& st = rep.stats;
  st.decisions += static_cast<long>(ds.size());

  // Demote-ladder monotonicity (both modes): a demotion is the policy
  // reacting to a futile boot — once taken, no later decision within the
  // SAME job (same absolute deadline) may re-select a tier below the
  // demote floor on the resilience ladder. Ladder rank is the
  // base<ace<flex<sonic<tile resilience order, not calibrated energy.
  {
    double job_key = std::numeric_limits<double>::quiet_NaN();
    int floor_rank = -1;
    std::string floor_tier;
    for (const auto& d : ds) {
      if (d.deadline_s != job_key) {  // job boundary: the floor resets
        job_key = d.deadline_s;
        floor_rank = -1;
        floor_tier.clear();
      }
      const int r = fx_.ladder_rank.at(d.tier);
      if (d.demote) {
        ++st.demotes;
        if (r > floor_rank) {
          floor_rank = r;
          floor_tier = d.tier;
        }
      } else if (floor_rank >= 0 && r < floor_rank) {
        rep.violations.push_back(
            {3, ser,
             "un-demote flap: demoted to " + floor_tier + " but re-selected " + d.tier +
                 " at t=" + fmt_g17(d.t_s) + " within the same job"});
      }
    }
  }

  if (spec.sel == TierSelect::kIncome) {
    // Income mode: the fresh decision is a pure function of the forecast
    // value (the forced tile/sonic bands are static per world), and the
    // ladder is monotone — a richer forecast never picks a leaner tier.
    // Checked across the WHOLE run: sort non-demote decisions by forecast
    // and require equal-forecast groups to agree and ladder rank to be
    // non-increasing in the forecast.
    std::vector<const TierDecision*> fresh;
    for (const auto& d : ds) {
      if (!d.demote) fresh.push_back(&d);
    }
    std::stable_sort(fresh.begin(), fresh.end(),
                     [](const TierDecision* a, const TierDecision* b) {
                       return a->forecast_w < b->forecast_w;
                     });
    for (std::size_t i = 1; i < fresh.size(); ++i) {
      ++st.income_pairs;
      const int r_prev = fx_.ladder_rank.at(fresh[i - 1]->tier);
      const int r_cur = fx_.ladder_rank.at(fresh[i]->tier);
      if (fresh[i]->forecast_w == fresh[i - 1]->forecast_w) {
        if (fresh[i]->tier != fresh[i - 1]->tier) {
          rep.violations.push_back(
              {3, ser,
               "income flap: equal forecast " + fmt_g17(fresh[i]->forecast_w) +
                   " picked " + fresh[i - 1]->tier + " and " + fresh[i]->tier});
        }
      } else if (r_cur > r_prev) {
        rep.violations.push_back(
            {3, ser,
             "income ladder not monotone: forecast " + fmt_g17(fresh[i - 1]->forecast_w) +
                 " -> " + fresh[i - 1]->tier + " but richer " +
                 fmt_g17(fresh[i]->forecast_w) + " -> leaner " + fresh[i]->tier});
      }
    }
    return;
  }

  // Deadline mode. While no period lock is held the forecast curve is
  // flat, so the fresh decision is a PURE FUNCTION of three numbers: the
  // remaining budget (deadline - now), the forecast value, and the flex
  // overhead estimate — everything else decide_deadline reads (forced
  // bands, calibration, burst energy) is static per world. Flap-freedom
  // is therefore: two decisions with a bit-identical evidence key pick
  // the SAME tier. Equal keys genuinely recur — the EMA forecast and
  // overhead converge bit-exactly over steady income, and jobs released
  // on time share the same remaining budget at first boot. A per-boot
  // "unchanged evidence" segment check would be vacuous instead: the
  // policy records an income sample at exactly every event that triggers
  // a re-decide, so consecutive decisions almost never share evidence.
  // Locked-curve decisions are excluded (the phase-indexed forecast is a
  // legitimately time-varying input; CONTRACTS.md documents the
  // carve-out).
  struct Keyed {
    double budget, forecast, ovh;
    const TierDecision* d;
  };
  std::vector<Keyed> keyed;
  for (const auto& d : ds) {
    if (d.demote || d.fc_period_s > 0.0) continue;
    keyed.push_back({d.deadline_s - d.t_s, d.forecast_w, d.ovh_j, &d});
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.budget != b.budget) return a.budget < b.budget;
    if (a.forecast != b.forecast) return a.forecast < b.forecast;
    return a.ovh < b.ovh;
  });
  for (std::size_t i = 1; i < keyed.size(); ++i) {
    const Keyed& a = keyed[i - 1];
    const Keyed& b = keyed[i];
    if (a.budget != b.budget || a.forecast != b.forecast || a.ovh != b.ovh) continue;
    ++st.deadline_seqs;
    if (a.d->tier != b.d->tier) {
      rep.violations.push_back(
          {3, ser,
           "deadline flap: equal evidence (budget=" + fmt_g17(a.budget) +
               " forecast=" + fmt_g17(a.forecast) + " ovh=" + fmt_g17(a.ovh) +
               ") picked " + a.d->tier + " at t=" + fmt_g17(a.d->t_s) + " and " +
               b.d->tier + " at t=" + fmt_g17(b.d->t_s)});
    }
  }
}

// CONTRACT-2a: lock onto p1, switch the truth to p2, require resolution
// (drop, or a lock consistent with the new truth) within kMaxPeriods.
// The periodic forecaster's phase-dispersion gate needs >= bins (12)
// samples per candidate period to fill its fold bins; 25 keeps both the
// true-period lag and its k=2 sub-multiple refinement above the gate.
constexpr int kSamplesPerPeriod = 25;
constexpr int kLockPeriods = 8;
constexpr int kMaxPeriods = 20;

bool lock_matches(double period, double truth, int max_multiple) {
  for (int k = 1; k <= max_multiple; ++k) {
    if (std::abs(period - k * truth) <= 0.15 * truth) return true;
  }
  return false;
}

void check_relock(const RelockWorld& w, Report& rep) {
  const std::string ser = serialize_world(w);
  Stats& st = rep.stats;
  ++st.relock_worlds;
  const std::unique_ptr<HarvestForecaster> fc =
      make_forecaster("periodic:prior=1.2e-3,alpha=0.5,conf=0.6");
  const power::SquareSource s1(w.hi_w, w.lo_w, w.p1_s, 0.5);
  const power::SquareSource s2(w.hi_w, w.lo_w, w.p2_s, 0.5);

  const double dt1 = w.p1_s / kSamplesPerPeriod;
  double t = 0.0;
  for (int i = 0; i < kLockPeriods * kSamplesPerPeriod; ++i) {
    fc->record_at(s1.power_at(t), t);
    t += dt1;
  }
  // A multiple of p1 is a true period of the p1 stream; the forecaster
  // resolves harmonics toward the shortest lag, so allow 1x..2x.
  if (!lock_matches(fc->period_s(), w.p1_s, 2)) {
    rep.violations.push_back(
        {2, ser,
         "no initial lock after " + std::to_string(kLockPeriods) + " periods (period=" +
             fmt_g17(fc->period_s()) + ")"});
    return;
  }

  // The truth changes to p2. Liveness, two stages: (1) the STALE lock
  // must stop being trusted within kMaxPeriods — either dropped back to
  // EMA smoothing or re-validated against the new truth (any multiple of
  // p2 is a genuine period of the new stream — e.g. a 0.8 s lock over a
  // 0.4 s square is correct); (2) a drop is only transitional — once the
  // stale history has been evicted the forecaster must RE-LOCK onto p2
  // (it provably locks from scratch in kLockPeriods), so by the end of
  // kMaxPeriods the held lock must be consistent with p2.
  const double dt2 = w.p2_s / kSamplesPerPeriod;
  bool resolved = false;
  bool dropped = false;
  for (int i = 0; i < kMaxPeriods * kSamplesPerPeriod; ++i) {
    fc->record_at(s2.power_at(t), t);
    t += dt2;
    const double p = fc->period_s();
    if (!resolved && (p == 0.0 || lock_matches(p, w.p2_s, 4))) {
      const long periods = i / kSamplesPerPeriod + 1;
      st.relock_max_periods = std::max(st.relock_max_periods, periods);
      dropped = p == 0.0;
      resolved = true;
    }
  }
  if (!resolved) {
    rep.violations.push_back(
        {2, ser,
         "stale lock (period=" + fmt_g17(fc->period_s()) + ") survived " +
             std::to_string(kMaxPeriods) + " periods of the new truth"});
    return;
  }
  if (dropped) ++st.relock_drops;
  if (lock_matches(fc->period_s(), w.p2_s, 4)) {
    ++st.relock_relocks;
  } else {
    rep.violations.push_back(
        {2, ser,
         "no re-lock onto the new truth after " + std::to_string(kMaxPeriods) +
             " periods (period=" + fmt_g17(fc->period_s()) + ")"});
  }
}

}  // namespace

// --------------------------------------------------------------- checking

Report check(const std::vector<World>& worlds, const std::vector<RelockWorld>& relocks,
             int jobs) {
  fixture();  // build the shared fixture before the pool forks

  // Worlds run in a worker pool; results land per-index and reduce in
  // world order, so the report bytes cannot depend on the worker count.
  std::vector<WorldResult> results(worlds.size());
  parallel_for(worlds.size(), jobs,
               [&](std::size_t i, int) { results[i] = run_world(worlds[i]); });

  Report rep;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const AdaptiveSpec spec = parse_adaptive_spec(worlds[i].sched);
    check_world(worlds[i], results[i], spec, rep);
    check_stability(worlds[i], results[i].budget_decisions, spec, rep);
  }
  for (const RelockWorld& rw : relocks) check_relock(rw, rep);

  // Deterministic violation order: by contract, then by world line, then
  // by detail (the per-world order above is already deterministic; this
  // keeps the report stable even if future checks interleave).
  std::stable_sort(rep.violations.begin(), rep.violations.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.contract != b.contract) return a.contract < b.contract;
                     if (a.world != b.world) return a.world < b.world;
                     return a.detail < b.detail;
                   });
  return rep;
}

Report check_depth(Depth depth, int jobs) {
  return check(world_grid(depth), relock_grid(depth), jobs);
}

const CompletionModel& fixture_completion_model() { return fixture().cmpl; }

void write_report(std::ostream& os, const Report& r, const std::string& grid_name) {
  const Stats& s = r.stats;
  os << "# ehdnn-contracts-v1\n";
  os << "grid " << grid_name << ": worlds=" << s.worlds << " jobs=" << s.jobs
     << " run=" << s.run_jobs << " stage1-skips=" << s.skips_stage1
     << " stage2-skips=" << s.skips_stage2 << " met-budget=" << s.met_budget
     << " met-all=" << s.met_all << "\n";
  long c1 = 0, c2 = 0, c3 = 0, c0 = 0;
  for (const auto& v : r.violations) {
    if (v.contract == 1) ++c1;
    if (v.contract == 2) ++c2;
    if (v.contract == 3) ++c3;
    if (v.contract == 0) ++c0;
  }
  os << "contract-1 soundness: checked=" << s.jobs << " excused-probe=" << s.excused_probe
     << " violations=" << c1 << "\n";
  os << "contract-2 liveness: streaks=" << s.skip_streaks
     << " relock-worlds=" << s.relock_worlds << " drops=" << s.relock_drops
     << " relocks=" << s.relock_relocks << " max-periods=" << s.relock_max_periods
     << " violations=" << c2 << "\n";
  os << "contract-3 stability: decisions=" << s.decisions << " demotes=" << s.demotes
     << " income-pairs=" << s.income_pairs << " deadline-pairs=" << s.deadline_seqs
     << " violations=" << c3 << "\n";
  if (c0 > 0) os << "harness: aborted-worlds=" << c0 << "\n";
  for (const auto& v : r.violations) {
    os << "violation C" << v.contract << " :: " << v.world << " :: " << v.detail << "\n";
  }
  os << (r.pass() ? "PASS" : "FAIL") << "\n";
}

}  // namespace ehdnn::sched::contract
