// Formal scheduler contracts, checked by exhaustive small-state
// enumeration: tiny discretized worlds — income shape x capacitor size x
// boot threshold (burst energy) x job period x deadline slack x scheduler
// spec — swept as a full cross product TO CLOSURE, each world driving the
// REAL AdaptivePolicy / CompletionModel / JobQueue machinery on a scratch
// device (nothing is re-implemented; the harness only observes through
// the enumeration hooks: JobRecord::skip_stage and the TierDecision log).
//
// The three contracts (full statements + proofs of why the code
// guarantees them live in CONTRACTS.md):
//
//   CONTRACT-1 (soundness)  admit=budget never skips a job that the
//       admit-all twin of the same world completed in deadline — except
//       for stage-2 FORECAST skips, the one documented exception class,
//       which the probe valve bounds. Checked by running every world
//       twice (admit=budget vs the same spec with admit=all) and
//       comparing per-job verdicts; any stage-1 (CERTAIN) skip of a job
//       the twin completed in deadline is a violation.
//
//   CONTRACT-2 (liveness)   (a) a confirmed forecast lock is re-validated
//       or dropped within K periods of the true period changing — checked
//       by a forecaster-level enumeration (period p1 -> lock -> period p2
//       -> must drop or re-lock); (b) a skipping device eventually
//       re-probes: no stage-2 skip ever occurs at position >= probe_skips
//       inside a consecutive-skip streak (the valve admits that release).
//
//   CONTRACT-3 (stability)  tier selection never flaps without an income
//       or job-outcome change. Income mode: the fresh decision is a
//       monotone function of the forecast (equal forecast -> equal tier;
//       richer forecast -> never a leaner tier). Deadline mode (checked
//       while no period lock is held, i.e. the forecast curve is flat):
//       the fresh decision is a pure function of (remaining budget,
//       forecast value, overhead estimate) — bit-identical evidence must
//       pick the same tier, so any A->B->A flap implies an input change.
//       Both modes: once a futile boot demotes a job down the resilience
//       ladder, no later decision in the SAME job re-selects a tier below
//       the demote floor (no un-demote flap).
//
// Violating worlds serialize to one deterministic line (serialize_world /
// parse_world round-trip bit-exactly) that replays through
// `contract_checker --world` and as fuzz_intermittent_test cases. The
// whole checker is deterministic: byte-identical reports for any worker
// count (results are reduced in world order, nothing is timestamped with
// host clocks).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sched/adaptive.h"
#include "sched/agenda.h"

namespace ehdnn::sched::contract {

// Enumeration depth: the bounded grid is the <60 s ctest subset; the full
// grid is the complete cross product (contract_checker --depth full).
enum class Depth { kBounded, kFull };

// One discretized device world. All values are resolved absolutes so a
// serialized world replays without the grid that produced it.
struct World {
  int id = 0;               // index in the producing grid (-1 = ad hoc)
  std::string source;       // power::make_harvest_source spec
  double cap_f = 10e-6;     // capacitor size
  double v_on = 3.3;        // boot threshold (v_off fixed: burst axis)
  double period_s = 0.4;    // job release period
  double deadline_s = 0.3;  // relative deadline
  int jobs = 6;             // agenda length
  std::string sched;        // sched::parse_adaptive_spec spec
};

// One forecaster-level re-lock world (CONTRACT-2a): lock onto a square
// source of period p1, then switch the true period to p2.
struct RelockWorld {
  int id = 0;
  double p1_s = 0.4;
  double p2_s = 0.8;
  double hi_w = 5e-3;
  double lo_w = 0.05e-3;
};

// Deterministic one-line formats:
//   world id=I src=SPEC cap=C von=V period=P dl=D jobs=N sched=SPEC
//   relock id=I p1=A p2=B hi=H lo=L
// Doubles print as %.17g so replay is bit-exact. parse_world /
// parse_relock_world throw ehdnn::Error on malformed lines.
std::string serialize_world(const World& w);
std::string serialize_world(const RelockWorld& w);
World parse_world(const std::string& line);
RelockWorld parse_relock_world(const std::string& line);

// The committed grids (full cross product per depth; see CONTRACTS.md
// for the axis values and the closure evidence).
std::vector<World> world_grid(Depth d);
std::vector<RelockWorld> relock_grid(Depth d);

struct Violation {
  int contract = 0;    // 1..3; 0 = harness budget exceeded (never expected)
  std::string world;   // serialized world (replayable)
  std::string detail;  // one line: job/decision indices + the numbers
};

// Aggregate closure evidence (every counter deterministic).
struct Stats {
  long worlds = 0;          // device worlds checked (each = twin runs)
  long jobs = 0;            // jobs across budget-twin runs
  long run_jobs = 0;        // admitted (non-skipped) jobs, budget twin
  long skips_stage1 = 0;    // CERTAIN skips, budget twin
  long skips_stage2 = 0;    // FORECAST skips, budget twin
  long met_budget = 0;      // in-deadline completions, budget twin
  long met_all = 0;         // in-deadline completions, admit-all twin
  long excused_probe = 0;   // CONTRACT-1 stage-2 exception instances
  long skip_streaks = 0;    // consecutive-skip streaks scanned (C2b)
  long decisions = 0;       // tier decisions logged, budget twin
  long demotes = 0;         // demote decisions among them (ladder check)
  long income_pairs = 0;    // CONTRACT-3 income-mode comparisons
  long deadline_seqs = 0;   // CONTRACT-3 deadline-mode equal-evidence pairs
  long relock_worlds = 0;   // CONTRACT-2a worlds
  long relock_drops = 0;    //   resolved by dropping the lock
  long relock_relocks = 0;  //   resolved by re-locking near p2
  long relock_max_periods = 0;  // worst periods-to-resolution observed
};

struct Report {
  std::vector<Violation> violations;
  Stats stats;
  bool pass() const { return violations.empty(); }
};

// Per-job outcome of one world's twin runs, exposed for the enumeration
// test's spot assertions and for minting fuzzer replay cases.
struct JobOutcome {
  int job = 0;
  bool budget_skipped = false;
  int budget_stage = 0;  // JobRecord::skip_stage of the budget twin
  bool budget_met = false;
  bool all_met = false;
};
struct WorldResult {
  std::vector<JobOutcome> jobs;
  std::vector<TierDecision> budget_decisions;
  long budget_steps = 0;
  long all_steps = 0;
};

// Runs one world's twin pair and returns the per-job evidence (also used
// internally by check_worlds). Deterministic.
WorldResult run_world(const World& w);

// Checks CONTRACT-1/2b/3 over device worlds and CONTRACT-2a over re-lock
// worlds, with `jobs` worker threads (>=1). Results are reduced in world
// order — the report is byte-identical for any `jobs`.
Report check(const std::vector<World>& worlds, const std::vector<RelockWorld>& relocks,
             int jobs);

// Convenience: both grids at `depth`.
Report check_depth(Depth depth, int jobs);

// The shared tiny-deployment calibration the harness ranks tiers with —
// the evidence behind the grid axis values (contract_checker
// --calibration prints it; CONTRACTS.md records the numbers).
const CompletionModel& fixture_completion_model();

// Deterministic text report (no host clocks, stable ordering): header,
// per-contract closure lines, one line per violation, PASS/FAIL tail.
void write_report(std::ostream& os, const Report& r, const std::string& grid_name);

}  // namespace ehdnn::sched::contract
