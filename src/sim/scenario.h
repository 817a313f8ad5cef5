// The scenario engine: sweep {runtimes} x {model-zoo entries} x {power
// scenarios} and emit a completion/latency/on-off-energy matrix — the
// Fig. 7-style reproduction artifact (SCENARIOS.json), generalized from
// two synthetic supplies to arbitrary harvest traces. New traces are new
// scenarios; no code changes required (see power::make_harvest_source).
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/flex/executor.h"
#include "core/flex/runtime.h"
#include "models/zoo.h"
#include "obs/export.h"
#include "sched/runtimes.h"

namespace ehdnn::sim {

// One power scenario: a harvest-source spec (power/factory.h grammar) or
// the literal "continuous" for bench power, plus the capacitor buffering
// it feeds.
struct ScenarioSpec {
  std::string name;
  std::string source = "continuous";
  double capacitance_f = 10e-6;  // bench_common's paper-regime default
  double max_off_s = 30.0;       // starvation guard while recharging
  long max_reboots = 100000;     // hard cap (livelock guard fires earlier)
  // Executor livelock watchdog (RunOptions::max_futile_boots): N
  // consecutive boots banking no commit/checkpoint end the cell as DNF
  // with the livelock flag. 0 (default) disables it, keeping the
  // long-standing scenarios byte-stable; the micro-cap scenarios set it.
  long max_futile = 0;
};

// Parses `NAME=SOURCE[;cap=FARADS][;max_off=S][;reboots=N][;max_futile=N]`, e.g.
//   office-rf=trace:path=traces/rf_office.csv;cap=10e-6
// Throws ehdnn::Error on a malformed argument.
ScenarioSpec parse_scenario_arg(const std::string& arg);

// One cell of the sweep. Stats are copied from flex::RunStats; `outcome`
// distinguishes completed / dnf (the Fig. 7b "X") / starved.
struct ScenarioCell {
  std::string task;
  std::string runtime;
  std::string scenario;
  flex::Outcome outcome = flex::Outcome::kDidNotFinish;
  bool livelock = false;  // DNF via the futile-boot watchdog
  bool completed() const { return outcome == flex::Outcome::kCompleted; }
  double on_s = 0.0;
  double off_s = 0.0;
  double total_s = 0.0;
  double energy_j = 0.0;
  double checkpoint_energy_j = 0.0;
  long reboots = 0;
  long checkpoints = 0;
  long progress_commits = 0;
  long units_executed = 0;
  long units_total = 0;
  // Per-kind lifecycle event totals (counts-only obs::EventTrace attached
  // to every cell) — summed into the matrix `metrics` block.
  long event_counts[obs::kKindCount] = {};
  // Retained event ring, only for cells named in SweepOptions::trace_cells.
  std::optional<obs::TraceCapture> trace;
};

struct ScenarioMatrix {
  std::uint64_t seed = 0;
  std::vector<std::string> runtimes;
  std::vector<std::string> tasks;
  std::vector<ScenarioSpec> scenarios;
  std::vector<ScenarioCell> cells;
  // Lifecycle metrics summed over the cells in canonical order — the v3
  // `metrics` block, byte-identical for any job count because the cell
  // array it sums is.
  obs::MetricsRegistry metrics;
  // Retained event rings for SweepOptions::trace_cells, in cell-index
  // order — input to obs::write_chrome_trace / write_text_trace.
  std::vector<obs::TraceCapture> traces;
};

struct SweepOptions {
  std::uint64_t seed = 0xb0a710ad;  // model weights + input (bench parity)
  bool verbose = false;             // one progress line per cell to stderr
  // Worker threads for the sweep. Every cell runs on its own Device +
  // supply with a per-cell derived scramble seed, so the matrix — and the
  // bytes of SCENARIOS.json — is identical for any job count; only
  // wall-clock changes. Values < 1 are clamped to 1.
  int jobs = 1;
  // Wall-clock phase attribution (--profile); serial sweep only (jobs ==
  // 1 — one unsynchronized sink), null = off. run_matrix THROWS when set
  // together with jobs > 1 — the request used to be silently dropped,
  // which read as "the sweep was profiled" when it was not.
  flex::PhaseProfile* profile = nullptr;
  // Cells (canonical sweep indices: task-major, then scenario, then
  // runtime) whose event ring is retained for export. Every cell always
  // collects counts-only events for the metrics block.
  std::vector<int> trace_cells;
  long trace_capacity = 65536;
};

// The runtime keys, their policy factory and their model variants come
// from sched's runtime table (sched/runtimes.h).
using sched::all_runtime_keys;
using sched::make_policy;
using sched::runtime_is_adaptive;
using sched::runtime_uses_compressed_model;

// Runs every (runtime x task x scenario) combination, with
// SweepOptions::jobs worker threads (cells are independent: shared state
// is immutable models/inputs/sources). Cell order is deterministic and
// job-count independent. Unknown runtime keys throw; a scenario whose
// harvest spec fails to parse throws before any cell runs (fail fast,
// not after an hour of sweeping).
ScenarioMatrix run_matrix(const std::vector<std::string>& runtimes,
                          const std::vector<models::Task>& tasks,
                          const std::vector<ScenarioSpec>& scenarios,
                          const SweepOptions& opts = {});

// SCENARIOS.json, schema ehdnn-scenarios-v3 (see BENCHMARKS.md
// "Observability": v3 appends the matrix-level "metrics" block —
// "event.*" lifecycle counters plus gauges — after "cells"; v2 added the
// per-cell "livelock" flag and the scenario "max_futile" option).
void write_scenarios_json(std::ostream& os, const ScenarioMatrix& m);

}  // namespace ehdnn::sim
