// Scenario-engine CLI: sweeps runtimes x models x power scenarios and
// writes SCENARIOS.json (schema ehdnn-scenarios-v3; see BENCHMARKS.md
// "Scenarios" and "Observability"). Run from the repo root so the default
// trace scenarios resolve their traces/*.csv paths:
//
//   ./build/scenario_runner --out SCENARIOS.json
//   ./build/scenario_runner --tasks mnist --runtimes ace,flex
//       --scenario office-rf=trace:path=traces/rf_office.csv
//   ./build/scenario_runner --jobs 4        # parallel sweep, same bytes
//   ./build/scenario_runner --trace-cells 5,13 --trace-out sweep.trace.json
//       # retain those cells' lifecycle event rings (canonical sweep
//       # indices: task-major, then scenario, then runtime)
//
// With no --scenario arguments a built-in set is swept: continuous bench
// power, the paper's constant-harvest regime, a square duty cycle, bursty
// Poisson RF, a solar-day ramp, and the committed traces/*.csv files.
// --smoke runs a two-scenario ace/flex MNIST sweep (the ctest entry).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/parse.h"

namespace {

using namespace ehdnn;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<sim::ScenarioSpec> default_scenarios(bool with_traces) {
  std::vector<std::string> args = {
      "continuous=continuous",
      "const-1.2mW=const:w=1.2e-3",
      "square-10ms=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5",
      "rf-bursty=rf:base=0.2e-3,burst=6e-3,rate=40,dur=4e-3,seed=7,horizon=1",
      "solar-ramp=solar:peak=5e-3,day=0.5,daylight=0.6,floor=0.1e-3",
      // Sparse bursts with a dead floor and a tight off-time guard: every
      // runtime starves — the third outcome the matrix distinguishes.
      "rf-starved=rf:base=0,burst=8e-3,rate=2,dur=10e-3,seed=3,horizon=2;max_off=0.05",
      // Strongly periodic square harvest (long hi/lo phases): the regime
      // the periodic forecaster exists for — deadline-mode tier selection
      // must ride the income swings rather than average them away.
      "square-periodic=square:hi=5e-3,lo=0.1e-3,period=0.4,duty=0.5",
      // Micro-capacitor brown-out ladder (BENCHMARKS.md "Tile runtime").
      // The stored burst is 3.025 J/F x C and the 400-cycle boot sequence
      // alone costs ~142.5 nJ, so the ladder brackets the boot-cost floor:
      //   40 nF  (~121 nJ): below the floor — no runtime can bank a unit;
      //          every intermittence-capable runtime trips the futile-boot
      //          watchdog (bounded livelock DNF, not a 400k-reboot spin).
      //   50 nF  (~151 nJ): ~9 nJ of stored swing past boot. Only the tile
      //          runtime's reduction-tile commits are small enough to ride
      //          the hi-phase income from there; sonic/tails/flex livelock.
      //   80 nF  (~242 nJ): the decisive row — comfortably above the boot
      //          cost, still below SONIC's smallest loop commit. tile (and
      //          the adaptive ladder, which floors to it) completes; every
      //          per-element runtime livelocks.
      //   120 nF (~363 nJ): SONIC's conv loop commits fit again — the tile
      //          advantage window closing from above.
      "microcap-40nF=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"
      ";cap=40e-9;max_futile=400;reboots=400000",
      "microcap-50nF=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"
      ";cap=50e-9;max_futile=400;reboots=400000",
      "microcap-80nF=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"
      ";cap=80e-9;max_futile=400;reboots=400000",
      "microcap-120nF=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"
      ";cap=120e-9;max_futile=400;reboots=400000",
  };
  if (with_traces) {
    args.push_back("office-rf=trace:path=traces/rf_office.csv");
    args.push_back("solar-cloudy=trace:path=traces/solar_cloudy.csv");
    args.push_back("wearable-motion=trace:path=traces/wearable_motion.csv");
    // Clean time-compressed solar days (periodic dark gaps), committed
    // alongside the cloudy trace specifically for periodicity detection.
    args.push_back("solar-periodic=trace:path=traces/solar_periodic.csv");
  }
  std::vector<sim::ScenarioSpec> out;
  for (const auto& a : args) out.push_back(sim::parse_scenario_arg(a));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "SCENARIOS.json";
  std::vector<models::Task> tasks = {models::Task::kMnist};
  std::vector<std::string> runtimes = sim::all_runtime_keys();
  std::vector<sim::ScenarioSpec> scenarios;
  bool smoke = false;
  bool smoke_sched = false;
  bool with_traces = true;
  sim::SweepOptions opts;
  opts.verbose = true;

  std::string trace_out, trace_text_out, trace_cells_arg;

  CliParser p("scenario_runner",
              "Sweeps runtimes x models x power scenarios and writes SCENARIOS.json\n"
              "(ehdnn-scenarios-v3).");
  p.str("--out", "FILE", "output path", &out_path);
  p.value("--tasks", "mnist,har,okg", "comma-separated task list",
          [&](const std::string& v) {
            tasks.clear();
            for (const auto& t : split_csv(v)) tasks.push_back(models::parse_task(t));
          });
  p.value("--runtimes", "KEY,KEY,...",
          "runtime keys to sweep (see --list-runtimes; default all)",
          [&](const std::string& v) { runtimes = split_csv(v); });
  p.value("--scenario", "NAME=SPEC[;cap=F][;max_off=S][;reboots=N][;max_futile=N]",
          "add a power scenario (repeatable; default built-in set)",
          [&](const std::string& v) { scenarios.push_back(sim::parse_scenario_arg(v)); });
  p.int_min("--jobs", "N", "worker threads (same bytes for any N)", &opts.jobs, 1);
  p.toggle("--no-traces", "skip the committed traces/*.csv scenarios", &with_traces,
           false);
  p.toggle("--smoke", "tiny ace/flex MNIST sweep with assertions (ctest)", &smoke);
  p.toggle("--smoke-sched", "adaptive-scheduler sweep with assertions (ctest)",
           &smoke_sched);
  p.toggle("--quiet", "suppress the per-cell progress lines", &opts.verbose, false);
  bool profile = false;
  p.toggle("--profile", "print a host wall-clock phase breakdown (serial sweeps)",
           &profile);
  p.str("--trace-cells", "I[,I...]",
        "cell indices whose lifecycle event rings are retained for export",
        &trace_cells_arg);
  p.str("--trace-out", "FILE",
        "write the retained rings as Chrome trace_event JSON (Perfetto)", &trace_out);
  p.str("--trace-text-out", "FILE",
        "write the retained rings as the deterministic text dump", &trace_text_out);
  p.value("--trace-capacity", "N", "events retained per traced cell",
          [&](const std::string& v) {
            const auto n = parse_int(v, 1L, std::numeric_limits<long>::max());
            check(n.has_value(),
                  "--trace-capacity needs a positive integer, got \"" + v + "\"");
            opts.trace_capacity = *n;
          });
  add_listing_flags(p);
  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;

  if (!trace_cells_arg.empty()) {
    for (const auto& item : split_csv(trace_cells_arg)) {
      const auto d = parse_int(item, 0, std::numeric_limits<int>::max());
      if (!d.has_value()) {
        std::fprintf(stderr,
                     "scenario_runner: --trace-cells needs comma-separated cell "
                     "indices, got \"%s\"\n",
                     item.c_str());
        return 2;
      }
      opts.trace_cells.push_back(*d);
    }
  }

  if (smoke_sched) {
    // Scheduling smoke (ctest sched_smoke, run from the repo root): both
    // adaptive runtimes swept against ace/flex over a replayed trace and
    // an ACE-hostile one. Expectations asserted below.
    tasks = {models::Task::kMnist};
    runtimes = {"ace", "flex", "adaptive", "adaptive-deadline"};
    scenarios = {
        sim::parse_scenario_arg("solar-cloudy=trace:path=traces/solar_cloudy.csv"),
        sim::parse_scenario_arg("office-rf=trace:path=traces/rf_office.csv"),
    };
  } else if (smoke) {
    tasks = {models::Task::kMnist};
    runtimes = {"ace", "flex"};
    scenarios = {
        sim::parse_scenario_arg("continuous=continuous"),
        sim::parse_scenario_arg("square-10ms=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"),
    };
  } else if (scenarios.empty()) {
    scenarios = default_scenarios(with_traces);
  }

  flex::PhaseProfile prof;
  if (profile) {
    if (opts.jobs != 1) {
      std::fprintf(stderr,
                   "scenario_runner: --profile needs --jobs 1 (one shared, "
                   "unsynchronized sink)\n");
      return 2;
    }
    opts.profile = &prof;
  }

  try {
    const sim::ScenarioMatrix m = sim::run_matrix(runtimes, tasks, scenarios, opts);

    std::ofstream f(out_path);
    if (!f.good()) {
      std::fprintf(stderr, "scenario_runner: cannot write %s\n", out_path.c_str());
      return 1;
    }
    sim::write_scenarios_json(f, m);
    std::fprintf(stderr, "scenario_runner: wrote %zu cells to %s\n", m.cells.size(),
                 out_path.c_str());
    if (!trace_out.empty()) {
      std::ofstream tf(trace_out);
      check(tf.good(), "cannot write " + trace_out);
      obs::write_chrome_trace(tf, m.traces);
      std::fprintf(stderr, "scenario_runner: %zu trace tracks -> %s\n", m.traces.size(),
                   trace_out.c_str());
    }
    if (!trace_text_out.empty()) {
      std::ofstream tf(trace_text_out);
      check(tf.good(), "cannot write " + trace_text_out);
      obs::write_text_trace(tf, m.traces);
      std::fprintf(stderr, "scenario_runner: %zu trace tracks -> %s\n", m.traces.size(),
                   trace_text_out.c_str());
    }
    if (profile) {
      std::fprintf(stderr,
                   "scenario_runner: profile (host seconds): recharge %.3f "
                   "(%ld recoveries, %ld SRAM fills) | boot %.3f (%ld boots) | "
                   "kernel %.3f (%ld slices) | checkpoint %.3f (%ld writes)\n",
                   prof.recharge_s, *prof.recoveries, *prof.sram_fills, prof.boot_s,
                   *prof.boots, prof.kernel_s, *prof.slices, prof.checkpoint_s,
                   *prof.checkpoints);
    }

    if (smoke) {
      // ctest gate: under the square duty cycle FLEX must complete while
      // plain ACE (no intermittence support) must not — Fig. 7b's "X".
      bool flex_ok = false, ace_dnf = false;
      for (const auto& c : m.cells) {
        if (c.scenario != "square-10ms") continue;
        if (c.runtime == "flex") flex_ok = c.completed();
        if (c.runtime == "ace") ace_dnf = !c.completed();
      }
      if (!flex_ok || !ace_dnf) {
        std::fprintf(stderr, "scenario_runner: smoke expectations FAILED "
                             "(flex completed=%d, ace dnf=%d)\n",
                     flex_ok, ace_dnf);
        return 1;
      }
      std::fprintf(stderr, "scenario_runner: smoke ok (flex completes, ace DNFs)\n");
    }

    if (smoke_sched) {
      // ctest gate: the per-boot scheduler must complete every trace
      // scenario FLEX completes (it can always degrade to the FLEX
      // tier), including office-rf where plain ACE DNFs.
      bool adaptive_all = true, deadline_all = true, flex_all = true, ace_office_dnf = false;
      for (const auto& c : m.cells) {
        if (c.runtime == "adaptive") adaptive_all = adaptive_all && c.completed();
        if (c.runtime == "adaptive-deadline") deadline_all = deadline_all && c.completed();
        if (c.runtime == "flex") flex_all = flex_all && c.completed();
        if (c.runtime == "ace" && c.scenario == "office-rf") ace_office_dnf = !c.completed();
      }
      if (!adaptive_all || !deadline_all || !flex_all || !ace_office_dnf) {
        std::fprintf(stderr,
                     "scenario_runner: sched smoke expectations FAILED "
                     "(adaptive all=%d, adaptive-deadline all=%d, flex all=%d, "
                     "ace office-rf dnf=%d)\n",
                     adaptive_all, deadline_all, flex_all, ace_office_dnf);
        return 1;
      }
      std::fprintf(stderr,
                   "scenario_runner: sched smoke ok (both adaptive modes complete "
                   "everywhere flex does; ace DNFs office-rf)\n");
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
