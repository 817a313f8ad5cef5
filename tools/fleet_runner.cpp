// Fleet-simulation CLI: runs a population of independent intermittent
// devices — homogeneous via flags, heterogeneous and duty-cycled via a
// fleet config file — on the fleet engine, and writes
// FLEET.json (schema ehdnn-fleet-v6; see BENCHMARKS.md "Fleet" and
// "Observability"). Run from the repo root so trace paths resolve:
//
//   ./build/fleet_runner --out FLEET.json               # 64-dev office RF
//   ./build/fleet_runner --config configs/fleet_hetero.cfg --jobs 4
//   ./build/fleet_runner --config configs/fleet_hetero.cfg --compare-fixed
//   ./build/fleet_runner --devices 256 --task har --runtime tails
//
// Lifecycle event traces (Chrome trace_event JSON for Perfetto /
// chrome://tracing, or the deterministic text dump the goldens pin):
//
//   ./build/fleet_runner --config configs/fleet_microcap.cfg
//       --trace-devices 0,8,12 --trace-out microcap.trace.json
//
// Populations too big for one process split into shard partials that
// merge into byte-identical JSON (any shard count, including 1) — trace
// selections ride the partials, so --trace-out belongs on the --merge:
//
//   ./build/fleet_runner --config big.cfg --shards 4 --shard 0 --out s0.part
//   ...                                             --shard 3 --out s3.part
//   ./build/fleet_runner --merge --out FLEET.json s0.part s1.part s2.part s3.part
//
// Exit 0 on success, 2 on malformed input (a flag, a config line, a spec,
// a trace file), reported as one line, and 1 on an internal fault.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "obs/export.h"
#include "sim/fleet.h"
#include "sim/fleet_flags.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/parse.h"

using namespace ehdnn;

int main(int argc, char** argv) {
  std::string out_path = "FLEET.json";
  std::string config_path;
  sim::FleetRunOptions ropts;
  ropts.verbose = true;
  bool compare_fixed = false;
  int shards = 1, shard = -1;
  bool merge = false;
  std::vector<std::string> merge_inputs;

  // Homogeneous flag-built config; mutually exclusive with --config (a
  // silently ignored --seed or --devices would be worse than an error).
  sim::FleetGroup flag_group;
  flag_group.name = "fleet";
  flag_group.count = 64;
  sim::FleetConfig flag_cfg;
  std::string population_flag;  // last population flag seen

  std::string trace_out, trace_text_out, trace_devices_arg;

  CliParser p("fleet_runner",
              "Runs a fleet of independent intermittent devices against time-offset\n"
              "views of one harvest environment and writes FLEET.json "
              "(ehdnn-fleet-v6).");
  p.str("--out", "FILE", "output path (JSON, or the shard partial)", &out_path);
  p.str("--config", "FILE", "fleet config file (heterogeneous populations)",
        &config_path);
  p.int_min("--jobs", "N", "worker threads (same bytes for any N)", &ropts.jobs, 1);
  p.toggle("--compare-fixed", "re-run with every fixed runtime as a baseline",
           &compare_fixed);
  p.toggle("--compare-admission", "re-run with energy-budgeted admission off",
           &ropts.compare_admission);
  p.int_min("--shards", "N", "split the population into N process shards", &shards, 1);
  p.int_min("--shard", "I", "run shard I (0-based) and write its partial", &shard, 0);
  p.toggle("--merge", "merge shard partials (the bare arguments) into JSON", &merge);
  // The homogeneous-population flags; each remembers itself for the
  // --config conflict diagnostic.
  auto pop = [&](const char* flag, auto set) {
    return [&population_flag, flag, set](const std::string& v) {
      population_flag = flag;
      set(v);
    };
  };
  auto to_num = [](const char* flag, const std::string& v) {
    const auto d = parse_double(v);
    check_input(d.has_value(), std::string(flag) + " needs a number, got \"" + v + "\"");
    return *d;
  };
  auto to_int = []<class Int>(const char* flag, const std::string& v, Int lo, Int hi) {
    const auto n = parse_int(v, lo, hi);
    check_input(n.has_value(), std::string(flag) + " needs an integer in [" +
                                   std::to_string(lo) + ", " + std::to_string(hi) +
                                   "], got \"" + v + "\"");
    return *n;
  };
  p.value("--devices", "N", "population size (flag-built fleets)",
          pop("--devices", [&](const std::string& v) {
            flag_group.count = to_int("--devices", v, 1, 1'000'000'000);
          }));
  p.value("--task", "mnist|har|okg", "inference task",
          pop("--task",
              [&](const std::string& v) { flag_group.task = models::parse_task(v); }));
  p.value("--runtime", "KEY", "runtime key (see --list-runtimes)",
          pop("--runtime", [&](const std::string& v) { flag_group.agenda.runtime = v; }));
  p.value("--source", "SPEC", "harvest source spec",
          pop("--source", [&](const std::string& v) { flag_cfg.source = v; }));
  p.value("--cap", "FARADS", "per-device capacitance",
          pop("--cap",
              [&](const std::string& v) { flag_group.capacitance_f = to_num("--cap", v); }));
  p.value("--max-off", "S", "starvation guard (max continuous off-time)",
          pop("--max-off",
              [&](const std::string& v) { flag_group.max_off_s = to_num("--max-off", v); }));
  p.value("--njobs", "N", "jobs per device agenda",
          pop("--njobs", [&](const std::string& v) {
            flag_group.agenda.jobs = to_int("--njobs", v, 1, 1'000'000'000);
          }));
  p.value("--period", "S", "agenda release period",
          pop("--period",
              [&](const std::string& v) { flag_group.agenda.period_s = to_num("--period", v); }));
  p.value("--deadline", "S", "per-job deadline",
          pop("--deadline", [&](const std::string& v) {
            flag_group.agenda.deadline_s = to_num("--deadline", v);
          }));
  p.value("--spread", "S", "harvest offset spread across the population",
          pop("--spread",
              [&](const std::string& v) { flag_cfg.offset_spread_s = to_num("--spread", v); }));
  p.value("--seed", "N", "population seed",
          pop("--seed", [&](const std::string& v) {
            flag_cfg.seed = to_int("--seed", v, std::uint64_t{0},
                                   std::numeric_limits<std::uint64_t>::max());
          }));
  p.toggle("--quiet", "suppress the per-device progress lines", &ropts.verbose, false);
  bool profile = false;
  p.toggle("--profile", "print a host wall-clock phase breakdown (serial runs)",
           &profile);
  p.str("--trace-devices", "ID[,ID...]",
        "device ids whose lifecycle event rings are retained for export",
        &trace_devices_arg);
  p.str("--trace-out", "FILE",
        "write the retained rings as Chrome trace_event JSON (Perfetto)", &trace_out);
  p.str("--trace-text-out", "FILE",
        "write the retained rings as the deterministic text dump", &trace_text_out);
  p.value("--trace-capacity", "N", "events retained per traced device",
          [&](const std::string& v) {
            ropts.trace_capacity =
                to_int("--trace-capacity", v, 1L, std::numeric_limits<long>::max());
          });
  add_listing_flags(p);
  p.positionals("PARTIAL", "shard partial files to --merge",
                [&](const std::string& v) { merge_inputs.push_back(v); });

  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;

  // Comma-separated trace selection -> FleetRunOptions::trace_devices.
  if (!trace_devices_arg.empty()) {
    const auto ids = parse_id_list(trace_devices_arg);
    if (!ids.has_value()) {
      std::fprintf(stderr,
                   "fleet_runner: --trace-devices needs comma-separated device ids, "
                   "got \"%s\"\n",
                   trace_devices_arg.c_str());
      return 2;
    }
    ropts.trace_devices = *ids;
  }

  // One table-tested conflict matrix (sim/fleet_flags.h) instead of
  // checks scattered across the three mode branches below.
  {
    sim::FleetFlagSet fs;
    fs.merge = merge;
    fs.merge_inputs = static_cast<int>(merge_inputs.size());
    fs.have_config = !config_path.empty();
    fs.population_flag = population_flag;
    fs.shards = shards;
    fs.shard = shard;
    fs.compare_fixed = compare_fixed;
    fs.compare_admission = ropts.compare_admission;
    fs.profile = profile;
    fs.jobs = ropts.jobs;
    fs.have_trace_out = !trace_out.empty();
    fs.have_trace_text_out = !trace_text_out.empty();
    fs.have_trace_devices = !trace_devices_arg.empty();
    if (const std::string err = sim::validate_fleet_flags(fs); !err.empty()) {
      std::fprintf(stderr, "fleet_runner: %s\n", err.c_str());
      return 2;
    }
  }

  try {
    // Trace exporters, shared by the full-run and --merge paths (shard
    // partials carry their captures; the merge reassembles them).
    auto write_traces = [&](const sim::FleetReport& r) {
      if (!trace_out.empty()) {
        std::ofstream tf(trace_out);
        check_input(tf.good(), "cannot write " + trace_out);
        obs::write_chrome_trace(tf, r.traces);
        std::fprintf(stderr, "fleet_runner: %zu trace tracks -> %s\n", r.traces.size(),
                     trace_out.c_str());
      }
      if (!trace_text_out.empty()) {
        std::ofstream tf(trace_text_out);
        check_input(tf.good(), "cannot write " + trace_text_out);
        obs::write_text_trace(tf, r.traces);
        std::fprintf(stderr, "fleet_runner: %zu trace tracks -> %s\n", r.traces.size(),
                     trace_text_out.c_str());
      }
    };

    if (merge) {
      const sim::FleetReport r = sim::merge_fleet_shards(merge_inputs);
      std::ofstream f(out_path);
      check_input(f.good(), "cannot write " + out_path);
      sim::write_fleet_json(f, r);
      write_traces(r);
      std::fprintf(stderr, "fleet_runner: merged %zu shards, %d devices -> %s\n",
                   merge_inputs.size(), r.config.total_devices(), out_path.c_str());
      return 0;
    }

    sim::FleetConfig cfg;
    if (!config_path.empty()) {
      cfg = sim::parse_fleet_config_file(config_path);
    } else {
      flag_cfg.groups.push_back(flag_group);
      cfg = flag_cfg;
    }

    if (shard >= 0 || shards > 1) {
      std::ofstream f(out_path);
      check_input(f.good(), "cannot write " + out_path);
      sim::FleetEngine(cfg).run_shard(f, shard, shards, ropts);
      std::fprintf(stderr, "fleet_runner: shard %d/%d -> %s\n", shard, shards,
                   out_path.c_str());
      return 0;
    }

    flex::PhaseProfile prof;
    if (profile) ropts.profile = &prof;

    if (compare_fixed) {
      // Every fixed key from the runtime table (the adaptive key is the
      // subject, not a baseline).
      for (const auto& k : sim::all_runtime_keys()) {
        if (!sim::runtime_is_adaptive(k)) ropts.baseline_runtimes.push_back(k);
      }
    }

    const sim::FleetReport r = sim::run_fleet(cfg, ropts);

    std::ofstream f(out_path);
    check_input(f.good(), "cannot write " + out_path);
    sim::write_fleet_json(f, r);
    write_traces(r);
    std::fprintf(stderr,
                 "fleet_runner: %d devices, %d jobs -> %d completed (%.1f%%), %d in "
                 "deadline (%.1f%%); latency p50 %.4fs p90 %.4fs p99 %.4fs -> %s\n",
                 cfg.total_devices(), r.total_jobs, r.jobs_completed,
                 100.0 * r.completion_rate, r.jobs_in_deadline, 100.0 * r.deadline_rate,
                 r.latency_p50_s, r.latency_p90_s, r.latency_p99_s, out_path.c_str());
    if (profile) {
      const double total =
          prof.build_s + prof.recharge_s + prof.boot_s + prof.kernel_s + prof.checkpoint_s +
          prof.engine_s;
      std::fprintf(stderr,
                   "fleet_runner: profile (host seconds, main run): total %.3f | "
                   "build %.3f | recharge %.3f (%ld recoveries, %ld SRAM fills) | "
                   "boot %.3f (%ld boots) | kernel %.3f (%ld slices) | "
                   "checkpoint %.3f (%ld writes) | engine %.3f\n",
                   total, prof.build_s, prof.recharge_s, *prof.recoveries, *prof.sram_fills,
                   prof.boot_s, *prof.boots, prof.kernel_s, *prof.slices, prof.checkpoint_s,
                   *prof.checkpoints, prof.engine_s);
    }
    if (r.jobs_skipped > 0) {
      std::fprintf(stderr,
                   "fleet_runner: admission skipped %d infeasible releases "
                   "(~%.3g J reclaimed)\n",
                   r.jobs_skipped, r.energy_reclaimed_j);
    }
    for (const auto& b : r.baselines) {
      std::fprintf(stderr, "fleet_runner: baseline %-8s %d completed, %d in deadline\n",
                   b.runtime.c_str(), b.jobs_completed, b.jobs_in_deadline);
    }
    for (const auto& b : r.admission_baseline) {
      std::fprintf(stderr, "fleet_runner: baseline %-8s %d completed, %d in deadline\n",
                   b.runtime.c_str(), b.jobs_completed, b.jobs_in_deadline);
    }
  } catch (const UserError& e) {
    std::fprintf(stderr, "fleet_runner: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "fleet_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
