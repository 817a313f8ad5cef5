#include "sim/scenario.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include <limits>
#include <optional>

#include "core/ace/compiled_model.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/factory.h"
#include "power/monitor.h"
#include "sched/adaptive.h"
#include "util/check.h"
#include "util/format.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"

namespace ehdnn::sim {

namespace {

std::unique_ptr<flex::RuntimePolicy> make_adaptive_default() {
  return sched::make_adaptive_policy();
}

// Deadline-aware scheduling v2 as its own sweep column: predicted-
// completion tier selection over the periodic harvest forecaster (no
// admission — a one-shot scenario cell has no deadline to refuse).
std::unique_ptr<flex::RuntimePolicy> make_adaptive_deadline() {
  return sched::make_adaptive_policy(
      sched::parse_adaptive_spec("adaptive:sel=deadline,fc=periodic"));
}

// THE runtime table: key, model variant, and both factories in one place
// (the sweep, the fuzzer, and the fleet harness all resolve through it).
// `adaptive` entries ship BOTH variants co-resident and pick per boot;
// their `compressed` flag names the primary image the executor is armed
// with (the sim layer provisions the dense twin via sched::
// provision_adaptive).
struct RuntimeEntry {
  const char* key;
  bool compressed;  // deployment model vs dense twin (primary for adaptive)
  bool adaptive;    // per-boot scheduled (needs both variants provisioned)
  std::unique_ptr<flex::RuntimePolicy> (*make_policy)();
};

std::unique_ptr<flex::RuntimePolicy> make_tile_default() {
  return flex::make_tile_policy();
}

constexpr RuntimeEntry kRuntimeTable[] = {
    {"base", false, false, flex::make_ace_policy},
    {"ace", true, false, flex::make_ace_policy},
    {"sonic", false, false, flex::make_sonic_policy},
    {"tails", false, false, flex::make_tails_policy},
    {"tile", false, false, make_tile_default},
    {"flex", true, false, flex::make_flex_policy},
    {"adaptive", true, true, make_adaptive_default},
    {"adaptive-deadline", true, true, make_adaptive_deadline},
};

const RuntimeEntry& runtime_entry(const std::string& key) {
  // "tile" takes an optional ":t=N" spec suffix; the base name before the
  // colon resolves the table entry.
  const std::string base = key.substr(0, key.find(':'));
  for (const auto& rk : kRuntimeTable) {
    if (base == rk.key) {
      if (base != key) {
        // Validate spec arguments HERE so every resolver — the sweep, the
        // fuzzer, and fleet-config validation — rejects a malformed tile
        // spec (t=0, t=-4, unknown keys) before any device is built.
        check(base == "tile",
              "scenario: runtime \"" + base + "\" takes no spec arguments (\"" + key + "\")");
        flex::parse_tile_spec(key);
      }
      return rk;
    }
  }
  std::string known;
  for (const auto& rk : kRuntimeTable) known += std::string(known.empty() ? "" : "|") + rk.key;
  fail("scenario: unknown runtime \"" + key + "\" (" + known + ")");
}

double parse_num(const std::string& arg, const std::string& key, const std::string& val) {
  const auto v = parse_double(val);
  check(v.has_value(), "scenario \"" + arg + "\": bad number for " + key + ": \"" + val + "\"");
  return *v;
}

// A run-limit count (reboots, max_futile): an integer in [0, 1e15], the
// fleet config's bounds for the same keys.
long parse_count(const std::string& arg, const std::string& key, const std::string& val) {
  const auto v = parse_int(val, 0L, 1'000'000'000'000'000L);
  check(v.has_value(), "scenario \"" + arg + "\": " + key +
                           " must be an integer in [0, 1e15], got \"" + val + "\"");
  return *v;
}

// `src` is the scenario's shared (immutable) harvest source, or nullptr
// for continuous bench power; the stateful capacitor is per cell, as is
// the Device (seeded per cell so cells stay independent under any job
// interleaving). `qms`/`inputs` hold the task's model variants keyed by
// `compressed`; fixed runtimes use exactly one, the adaptive scheduler
// gets both compiled co-resident and picks per boot.
ScenarioCell run_cell(const std::string& rt_key, models::Task task,
                      const std::map<bool, quant::QuantModel>& qms,
                      const std::map<bool, std::vector<fx::q15_t>>& inputs,
                      const ScenarioSpec& sc, const power::HarvestSource* src,
                      std::uint64_t scramble_seed, flex::PhaseProfile* profile,
                      int cell_index, long trace_capacity) {
  const RuntimeEntry& rk = runtime_entry(rt_key);
  // Adaptive devices carry the dense twin too, so they get the enlarged
  // baseline FRAM geometry.
  dev::DeviceConfig dcfg =
      models::deployment_device_config(rk.adaptive ? false : rk.compressed);
  dcfg.scramble_seed = scramble_seed;
  dev::Device dev(dcfg);

  // Counts-only lifecycle trace on every cell (metrics block); ring
  // capture when the sweep selected this cell index.
  obs::EventTrace trace;
  if (trace_capacity > 0) trace.set_capacity(static_cast<std::size_t>(trace_capacity));

  power::ContinuousPower cont;
  std::unique_ptr<power::CapacitorSupply> cap;
  const bool continuous = src == nullptr;
  if (continuous) {
    dev.attach_supply(&cont);
  } else {
    power::CapacitorConfig ccfg;
    ccfg.capacitance_f = sc.capacitance_f;
    ccfg.max_off_s = sc.max_off_s;
    cap = std::make_unique<power::CapacitorSupply>(*src, ccfg);
    cap->set_trace(&trace);
    dev.attach_supply(cap.get());
  }

  const auto cm = ace::compile(qms.at(rk.compressed), dev);
  std::optional<ace::CompiledModel> cm_dense;
  if (rk.adaptive) cm_dense = ace::compile(qms.at(false), dev, /*co_resident=*/true);

  // Through the spec-aware factory, not rk.make_policy directly — tile's
  // ":t=N" suffix must reach the policy.
  auto policy = make_policy(rt_key);
  const double worst_ck = sched::provision_deployment(
      *policy, dev.cost(), cm, cm_dense.has_value() ? &*cm_dense : nullptr,
      continuous ? std::numeric_limits<double>::infinity() : cap->burst_energy());
  flex::RunOptions opts;
  opts.profile = profile;
  opts.trace = &trace;
  opts.max_reboots = sc.max_reboots;
  opts.max_futile_boots = sc.max_futile;
  if (!continuous) {
    opts.flex_v_warn = power::warn_voltage_for(cap->config(), worst_ck + 5e-6, 3.0);
  }
  const flex::RunStats st =
      flex::IntermittentExecutor(*policy).run(dev, cm, inputs.at(rk.compressed), opts);
  if (profile != nullptr) *profile->sram_fills += dev.sram_fills();

  ScenarioCell cell;
  cell.task = models::task_name(task);
  cell.runtime = rt_key;
  cell.scenario = sc.name;
  cell.outcome = st.outcome;
  cell.livelock = st.livelock;
  cell.on_s = st.on_seconds;
  cell.off_s = st.off_seconds;
  cell.total_s = st.total_seconds();
  cell.energy_j = st.energy_j;
  cell.checkpoint_energy_j = st.checkpoint_energy_j;
  cell.reboots = st.reboots;
  cell.checkpoints = st.checkpoints;
  cell.progress_commits = st.progress_commits;
  cell.units_executed = st.units_executed;
  cell.units_total = st.units_total;
  for (int k = 0; k < obs::kKindCount; ++k) cell.event_counts[k] = trace.counts()[k];
  if (trace.capacity() > 0) {
    cell.trace = obs::TraceCapture{
        cell_index,
        "cell " + std::to_string(cell_index) + " " + cell.task + "/" + sc.name + "/" + rt_key,
        trace.snapshot(), trace.dropped(), trace.total()};
  }
  return cell;
}

}  // namespace

std::unique_ptr<flex::RuntimePolicy> make_policy(const std::string& key) {
  const RuntimeEntry& e = runtime_entry(key);
  // Tile is the one parameterized entry: its spec suffix reaches the
  // policy (validated by runtime_entry above).
  if (std::string(e.key) == "tile") return flex::make_tile_policy(flex::parse_tile_spec(key));
  return e.make_policy();
}

bool runtime_uses_compressed_model(const std::string& key) {
  return runtime_entry(key).compressed;
}

bool runtime_is_adaptive(const std::string& key) { return runtime_entry(key).adaptive; }

const std::vector<std::string>& all_runtime_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> v;
    for (const auto& rk : kRuntimeTable) v.emplace_back(rk.key);
    return v;
  }();
  return keys;
}

ScenarioSpec parse_scenario_arg(const std::string& arg) {
  // NAME=SOURCE[;key=value...] — the first '=' ends the name (harvest
  // specs contain '=' themselves), ';' separates scenario options.
  const std::size_t eq = arg.find('=');
  check(eq != std::string::npos && eq > 0,
        "scenario \"" + arg + "\": expected NAME=SOURCE[;key=value...]");
  ScenarioSpec sc;
  sc.name = arg.substr(0, eq);
  const std::string rest = arg.substr(eq + 1);
  std::size_t pos = rest.find(';');
  sc.source = rest.substr(0, pos);
  check(!sc.source.empty(), "scenario \"" + arg + "\": empty source spec");
  while (pos != std::string::npos) {
    const std::size_t next = rest.find(';', pos + 1);
    const std::string item =
        rest.substr(pos + 1, (next == std::string::npos ? rest.size() : next) - pos - 1);
    pos = next;
    if (item.empty()) continue;
    const std::size_t ieq = item.find('=');
    check(ieq != std::string::npos && ieq > 0,
          "scenario \"" + arg + "\": expected key=value, got \"" + item + "\"");
    const std::string key = item.substr(0, ieq);
    const std::string val = item.substr(ieq + 1);
    // cap and max_off take the fleet config's bounds.
    if (key == "cap") {
      sc.capacitance_f = parse_num(arg, key, val);
      check(std::isfinite(sc.capacitance_f) && sc.capacitance_f > 0.0,
            "scenario \"" + arg + "\": cap must be finite and > 0");
    } else if (key == "max_off") {
      sc.max_off_s = parse_num(arg, key, val);
      check(sc.max_off_s > 0.0, "scenario \"" + arg + "\": max_off must be > 0");
    } else if (key == "reboots") {
      sc.max_reboots = parse_count(arg, key, val);
    } else if (key == "max_futile") {
      sc.max_futile = parse_count(arg, key, val);
    } else {
      fail("scenario \"" + arg + "\": unknown option \"" + key + "\"");
    }
  }
  return sc;
}

ScenarioMatrix run_matrix(const std::vector<std::string>& runtimes,
                          const std::vector<models::Task>& tasks,
                          const std::vector<ScenarioSpec>& scenarios,
                          const SweepOptions& opts) {
  ScenarioMatrix m;
  m.seed = opts.seed;
  m.runtimes = runtimes;
  m.scenarios = scenarios;

  // The profile request must never be silently dropped: phase attribution
  // shares one unsynchronized sink, so it is serial-only by design.
  check(opts.profile == nullptr || std::max(opts.jobs, 1) == 1,
        "scenario sweep: --profile needs --jobs 1 (one shared, unsynchronized "
        "sink); the request used to be silently ignored under a worker pool");

  // Fail fast on bad inputs before hours of sweeping; sources are
  // immutable (power_at is const), so each scenario's is built once and
  // shared read-only by its cells across workers.
  std::vector<bool> need_variant = {false, false};  // [compressed]
  for (const auto& rt : runtimes) {
    const RuntimeEntry& e = runtime_entry(rt);
    need_variant[e.compressed] = true;
    if (e.adaptive) need_variant[false] = need_variant[true] = true;
  }
  std::vector<std::unique_ptr<power::HarvestSource>> sources;
  for (const auto& sc : scenarios) {
    check(!sc.name.empty(), "scenario with empty name");
    sources.push_back(sc.source == "continuous" ? nullptr
                                                : power::make_harvest_source(sc.source));
  }

  // Deployment + dense instances and inputs for every task, seeded
  // exactly like the paper benches so matrix cells are comparable to
  // fig7b rows. Only the variants the requested runtimes execute are
  // built (the dense HAR/OKG twins are the expensive ones). Models and
  // inputs are immutable during the sweep — workers share them.
  std::vector<std::map<bool, quant::QuantModel>> qms(tasks.size());
  std::vector<std::map<bool, std::vector<fx::q15_t>>> inputs(tasks.size());
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    const models::Task task = tasks[ti];
    m.tasks.push_back(models::task_name(task));
    for (const bool compressed : {false, true}) {
      if (!need_variant[compressed]) continue;
      Rng rng(opts.seed + static_cast<std::uint64_t>(task));
      qms[ti][compressed] = models::make_deployed_qmodel(task, compressed, rng);
      std::vector<fx::q15_t> input(qms[ti][compressed].layers.front().in_size());
      for (auto& v : input) v = static_cast<fx::q15_t>(rng.next_u64());
      inputs[ti][compressed] = std::move(input);
    }
  }

  // Flatten the sweep into an index space with the canonical cell order
  // (task-major, then scenario, then runtime); workers claim cells
  // (util/parallel.h) and write results into their fixed slot, so the
  // matrix is byte-identical for any job count.
  const std::size_t n_cells = tasks.size() * scenarios.size() * runtimes.size();
  for (const int id : opts.trace_cells) {
    check(id >= 0 && static_cast<std::size_t>(id) < n_cells,
          "scenario sweep: trace cell index " + std::to_string(id) +
              " out of range [0, " + std::to_string(n_cells) + ")");
  }
  m.cells.resize(n_cells);
  std::mutex log_mu;
  parallel_for(n_cells, opts.jobs, [&](std::size_t i, int) {
    const std::size_t ri = i % runtimes.size();
    const std::size_t si = (i / runtimes.size()) % scenarios.size();
    const std::size_t ti = i / (runtimes.size() * scenarios.size());
    const std::string& rt = runtimes[ri];
    const ScenarioSpec& sc = scenarios[si];
    // Per-cell derived scramble seed: cells are fully independent and
    // reproducible in isolation. (Outputs and modeled costs are
    // scramble-independent — the crash-consistency contract — so this
    // cannot change the matrix.)
    const std::uint64_t cell_seed =
        opts.seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1);
    long trace_cap = 0;
    for (const int id : opts.trace_cells) {
      if (static_cast<std::size_t>(id) == i) trace_cap = std::max<long>(1, opts.trace_capacity);
    }
    ScenarioCell cell = run_cell(rt, tasks[ti], qms[ti], inputs[ti], sc,
                                 sources[si].get(), cell_seed, opts.profile,
                                 static_cast<int>(i), trace_cap);
    if (opts.verbose) {
      const std::lock_guard<std::mutex> lock(log_mu);
      std::fprintf(stderr, "scenario %s/%s/%s: %s (on %.3fs, off %.3fs, %ld reboots)\n",
                   cell.task.c_str(), sc.name.c_str(), rt.c_str(),
                   flex::outcome_name(cell.outcome), cell.on_s, cell.off_s, cell.reboots);
    }
    m.cells[i] = std::move(cell);
  });

  // Metrics and trace captures from the finished cell array, summed in
  // canonical cell order — deterministic for any worker count because the
  // array itself is.
  long* ev_cells[obs::kKindCount];
  for (int k = 0; k < obs::kKindCount; ++k) {
    ev_cells[k] = m.metrics.counter(std::string("event.") +
                                    obs::event_name(static_cast<obs::EventKind>(k)));
  }
  long* trace_dropped = m.metrics.counter("trace.dropped_events");
  long* max_reboots = m.metrics.gauge("sweep.max_cell_reboots");
  for (const ScenarioCell& c : m.cells) {
    for (int k = 0; k < obs::kKindCount; ++k) *ev_cells[k] += c.event_counts[k];
    if (c.reboots > *max_reboots) *max_reboots = c.reboots;
    if (c.trace) {
      *trace_dropped += c.trace->dropped;
      m.traces.push_back(*c.trace);
    }
  }
  return m;
}

void write_scenarios_json(std::ostream& os, const ScenarioMatrix& m) {
  os << "{\n  \"schema\": \"ehdnn-scenarios-v3\",\n";
  os << "  \"seed\": " << m.seed << ",\n";
  auto str_list = [&os](const std::vector<std::string>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << json_str(v[i]) << (i + 1 < v.size() ? ", " : "");
    }
  };
  os << "  \"tasks\": [";
  str_list(m.tasks);
  os << "],\n  \"runtimes\": [";
  str_list(m.runtimes);
  os << "],\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < m.scenarios.size(); ++i) {
    const ScenarioSpec& sc = m.scenarios[i];
    os << "    {\"name\": " << json_str(sc.name) << ", \"source\": " << json_str(sc.source)
       << ", \"capacitance_f\": " << sc.capacitance_f << ", \"max_off_s\": " << sc.max_off_s
       << ", \"max_reboots\": " << sc.max_reboots << ", \"max_futile\": " << sc.max_futile
       << "}"
       << (i + 1 < m.scenarios.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const ScenarioCell& c = m.cells[i];
    os << "    {\"task\": " << json_str(c.task) << ", \"scenario\": " << json_str(c.scenario)
       << ", \"runtime\": " << json_str(c.runtime)
       << ", \"outcome\": " << json_str(flex::outcome_name(c.outcome))
       << ", \"completed\": " << (c.completed() ? "true" : "false")
       << ", \"livelock\": " << (c.livelock ? "true" : "false") << ",\n     \"on_s\": "
       << c.on_s << ", \"off_s\": " << c.off_s << ", \"total_s\": " << c.total_s
       << ", \"energy_j\": " << c.energy_j
       << ", \"checkpoint_energy_j\": " << c.checkpoint_energy_j << ",\n     \"reboots\": "
       << c.reboots << ", \"checkpoints\": " << c.checkpoints
       << ", \"progress_commits\": " << c.progress_commits
       << ", \"units_executed\": " << c.units_executed
       << ", \"units_total\": " << c.units_total << "}"
       << (i + 1 < m.cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  obs::write_metrics_json(os, m.metrics, "  ");
  os << "\n}\n";
}

}  // namespace ehdnn::sim
