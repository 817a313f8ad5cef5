// Fleet engine (sim/fleet.h) and parallel sweep (SweepOptions::jobs):
// the fleet runs heterogeneous groups of duty-cycled devices through the
// incremental executor API, and every way of running it — any worker
// count, any process-shard split — must produce identical artifacts.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sched/adaptive.h"
#include "sim/fleet.h"
#include "sim/fleet_flags.h"
#include "sim/scenario.h"

namespace ehdnn::sim {
namespace {

FleetConfig tiny_fleet() {
  FleetConfig cfg;
  // Synthetic square harvest: no trace file dependency, every device
  // cycles power several times.
  cfg.source = "square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5";
  cfg.offset_spread_s = 0.02;  // spread across one square period
  FleetGroup g;
  g.name = "tiny";
  g.count = 6;
  g.task = models::Task::kMnist;
  g.agenda.runtime = "flex";
  g.agenda.jobs = 1;
  g.agenda.period_s = 0.05;
  g.capacitance_f = 10e-6;
  cfg.groups.push_back(g);
  return cfg;
}

TEST(Fleet, CompletesAndAggregates) {
  const FleetReport r = run_fleet(tiny_fleet());
  ASSERT_EQ(r.devices.size(), 6u);
  EXPECT_EQ(r.total_jobs, 6);
  EXPECT_EQ(r.jobs_completed, 6);
  EXPECT_EQ(r.jobs_dnf, 0);
  EXPECT_EQ(r.jobs_starved, 0);
  EXPECT_DOUBLE_EQ(r.completion_rate, 1.0);
  // No deadline in the agenda: every completed job counts as in-deadline.
  EXPECT_EQ(r.jobs_in_deadline, 6);
  // Percentiles are order statistics of the same sample: monotone, and
  // the max bounds them all.
  EXPECT_LE(r.latency_p50_s, r.latency_p90_s);
  EXPECT_LE(r.latency_p90_s, r.latency_p99_s);
  EXPECT_LE(r.latency_p99_s, r.latency_max_s);
  EXPECT_GT(r.latency_p50_s, 0.0);
  for (const auto& d : r.devices) {
    EXPECT_EQ(d.jobs_completed, 1) << "device " << d.device;
    // The agenda was stepped slice by slice, not run in one call.
    EXPECT_GT(d.steps, 5) << "device " << d.device;
    EXPECT_GT(d.energy_j, 0.0);
  }
}

TEST(Fleet, OffsetsShiftTheHarvestPhase) {
  const FleetReport r = run_fleet(tiny_fleet());
  // Offsets are distinct by construction...
  for (std::size_t i = 1; i < r.devices.size(); ++i) {
    EXPECT_LT(r.devices[i - 1].offset_s, r.devices[i].offset_s);
  }
  // ...and phase-shifted power means not every device finishes its job at
  // the same staleness (inputs differ too, but timing is schedule-driven).
  bool any_difference = false;
  for (std::size_t i = 1; i < r.devices.size(); ++i) {
    if (r.devices[i].jobs[0].staleness_s != r.devices[0].jobs[0].staleness_s) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "time offsets had no observable effect";
}

TEST(Fleet, DeterministicAcrossRunsAndWorkerCounts) {
  FleetRunOptions serial;
  serial.jobs = 1;
  FleetRunOptions parallel;
  parallel.jobs = 3;
  // More workers than devices: the pool clamps to 6, and every worker
  // reuses its slab slot across the devices it claims.
  FleetRunOptions oversubscribed;
  oversubscribed.jobs = 8;
  const FleetReport a = run_fleet(tiny_fleet(), serial);
  const FleetReport b = run_fleet(tiny_fleet(), parallel);
  const FleetReport c = run_fleet(tiny_fleet(), serial);
  const FleetReport d = run_fleet(tiny_fleet(), oversubscribed);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  std::ostringstream ja, jb, jc, jd;
  write_fleet_json(ja, a);
  write_fleet_json(jb, b);
  write_fleet_json(jc, c);
  write_fleet_json(jd, d);
  EXPECT_EQ(ja.str(), jb.str()) << "FLEET.json must be byte-identical for any worker count";
  EXPECT_EQ(ja.str(), jc.str()) << "FLEET.json must be byte-identical across reruns";
  EXPECT_EQ(ja.str(), jd.str()) << "FLEET.json must be byte-identical with jobs > devices";
}

// A FleetSink attached through the public API sees every device exactly
// once, and merge() folds two sinks' observations together.
struct CountingSink final : FleetSink {
  int records = 0;
  int total_jobs = 0;
  void record(const FleetDeviceResult& d) override {
    ++records;
    total_jobs += d.jobs_total;
  }
  void merge(const FleetSink& other) override {
    const auto& o = dynamic_cast<const CountingSink&>(other);
    records += o.records;
    total_jobs += o.total_jobs;
  }
  void finalize() override {}
};

TEST(Fleet, SinksObserveEveryDevice) {
  CountingSink sink;
  const FleetReport r = FleetEngine(tiny_fleet()).add_sink(sink).run();
  EXPECT_EQ(sink.records, 6);
  EXPECT_EQ(sink.total_jobs, r.total_jobs);
  CountingSink other;
  other.records = 4;
  other.total_jobs = 10;
  sink.merge(other);
  EXPECT_EQ(sink.records, 10);
  EXPECT_EQ(sink.total_jobs, r.total_jobs + 10);
}

std::string run_as_shards(const FleetConfig& cfg, int shards) {
  std::vector<std::string> paths;
  for (int s = 0; s < shards; ++s) {
    const std::string path = testing::TempDir() + "fleet_shard_" +
                             std::to_string(shards) + "_" + std::to_string(s) + ".part";
    std::ofstream f(path);
    FleetEngine(cfg).run_shard(f, s, shards);
    paths.push_back(path);
  }
  const FleetReport merged = merge_fleet_shards(paths);
  for (const auto& p : paths) std::remove(p.c_str());
  std::ostringstream os;
  write_fleet_json(os, merged);
  return os.str();
}

TEST(Fleet, ShardedRunMergesToTheIdenticalArtifact) {
  const FleetConfig cfg = tiny_fleet();
  std::ostringstream whole;
  write_fleet_json(whole, run_fleet(cfg));
  EXPECT_EQ(run_as_shards(cfg, 1), whole.str());
  EXPECT_EQ(run_as_shards(cfg, 3), whole.str())
      << "merged shards must be byte-identical to the unsharded artifact";

  // Aggregate detail mode: the same contract with per_device dropped.
  FleetConfig agg_cfg = cfg;
  agg_cfg.per_device_detail = false;
  std::ostringstream agg_whole;
  const FleetReport agg_report = run_fleet(agg_cfg);
  EXPECT_TRUE(agg_report.devices.empty());
  EXPECT_EQ(agg_report.total_jobs, 6);
  write_fleet_json(agg_whole, agg_report);
  EXPECT_NE(agg_whole.str().find("\"detail\": \"aggregate\""), std::string::npos);
  EXPECT_NE(agg_whole.str().find("\"per_device\": []"), std::string::npos);
  EXPECT_EQ(run_as_shards(agg_cfg, 2), agg_whole.str());
}

// A partial no run could have written (impossible counters, ids, field
// values, or a row that disagrees with its jobs) is refused at merge
// instead of folding into a report that contradicts itself. A partial is
// user input, so each refusal is a UserError.
TEST(Fleet, MergeRejectsTamperedRows) {
  std::ostringstream part;
  FleetEngine(tiny_fleet()).run_shard(part, 0, 1);
  const std::string good = part.str();
  // Row fields: device jobs_total completed in_deadline skipped dnf starved
  // livelock reboots tier_switches steps energy reclaimed events...
  const std::string head = "\nrow 0 1 1 1 0 0 0 0 ";
  const std::size_t row = good.find(head);
  ASSERT_NE(row, std::string::npos) << "fixture: device 0 completes its one job";
  auto tampered = [&](const std::string& fields) {
    return std::string(good).replace(row, head.size(), "\nrow 0 " + fields + " ");
  };
  const std::string path = testing::TempDir() + "fleet_tampered.part";
  auto merge_text = [&](const std::string& text) {
    std::ofstream(path) << text;
    return merge_fleet_shards({path});
  };
  EXPECT_NO_THROW(merge_text(good));
  EXPECT_THROW(merge_text(tampered("1 9 1 0 0 0 0")), UserError);  // buckets sum to 9
  EXPECT_THROW(merge_text(tampered("1 1 2 0 0 0 0")), UserError);  // in_deadline > total
  EXPECT_THROW(merge_text(tampered("1 2 1 0 -1 0 0")), UserError);   // negative bucket
  EXPECT_THROW(merge_text(tampered("-1 -1 0 0 0 0 0")), UserError);  // negative total

  // `good` with `text` inserted before the end marker.
  auto appended = [&](const std::string& text) {
    return std::string(good).insert(good.rfind("end\n"), text + "\n");
  };
  // `good` with token k (0 is the tag) of the first line starting with
  // `prefix` replaced by `value`; line_with returns that line alone.
  auto line_with = [&](const std::string& prefix, std::size_t k, const std::string& value) {
    const std::size_t at = good.find("\n" + prefix) + 1;
    std::istringstream ls(good.substr(at, good.find('\n', at) - at));
    std::string line, tok;
    for (std::size_t i = 0; ls >> tok; ++i) {
      line += (i == 0 ? "" : " ") + (i == k ? value : tok);
    }
    return line;
  };
  auto retoken = [&](const std::string& prefix, std::size_t k, const std::string& value) {
    const std::size_t at = good.find("\n" + prefix) + 1;
    const std::size_t eol = good.find('\n', at);
    return std::string(good).replace(at, eol - at, line_with(prefix, k, value));
  };
  const std::string job0 = line_with("job 0 ", 0, "job");
  // Ids: rows exactly [begin, end) once each; trace and job lines only of
  // devices with a row; one job block per device.
  EXPECT_THROW(merge_text(retoken("row 1 ", 1, "0")), UserError);  // row 0 twice, no row 1
  EXPECT_THROW(merge_text(appended("trace 6 0 0 0 device 6")), UserError);
  EXPECT_THROW(merge_text(appended(line_with("job 0 ", 1, "9"))), UserError);
  EXPECT_THROW(merge_text(appended(job0)), UserError);  // a second block of device 0
  // Values by kind: a nan energy, a negative count, a flag that is not 0/1.
  EXPECT_THROW(merge_text(retoken("row 0 ", 12, "nan")), UserError);
  EXPECT_THROW(merge_text(retoken("job 0 ", 14, "-5")), UserError);  // checkpoints
  EXPECT_THROW(merge_text(retoken("job 0 ", 9, "x")), UserError);    // met_deadline
  // A job line whose reboots disagree with its device's row.
  ASSERT_NE(line_with("job 0 ", 13, "99"), job0);
  EXPECT_THROW(merge_text(retoken("job 0 ", 13, "99")), UserError);
  // Framing and sketches: a short range line, no end marker, a sketch
  // count that is not a number and a sketch of another accuracy.
  EXPECT_THROW(merge_text(retoken("range ", 4, "")), UserError);
  EXPECT_THROW(merge_text(good.substr(0, good.rfind("end\n"))), UserError);
  EXPECT_THROW(merge_text(retoken("sketch latency ", 4, "x")), UserError);
  EXPECT_THROW(merge_text(retoken("sketch latency ", 3, "rel_err=0.02")), UserError);
  std::remove(path.c_str());
}

TEST(Fleet, ConfigRoundTripsThroughWriter) {
  FleetConfig cfg = tiny_fleet();
  cfg.groups[0].sched_spec = "";
  cfg.per_device_detail = false;
  std::ostringstream os;
  write_fleet_config(os, cfg);
  std::istringstream is(os.str());
  const FleetConfig back = parse_fleet_config(is);
  std::ostringstream os2;
  write_fleet_config(os2, back);
  EXPECT_EQ(os.str(), os2.str());
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_FALSE(back.per_device_detail);
  ASSERT_EQ(back.groups.size(), 1u);
  EXPECT_EQ(back.groups[0].name, "tiny");
  EXPECT_EQ(back.groups[0].agenda.jobs, cfg.groups[0].agenda.jobs);
}

TEST(Fleet, DutyCycledAgendaReleasesOnSchedule) {
  FleetConfig cfg = tiny_fleet();
  cfg.groups[0].count = 2;
  cfg.groups[0].agenda.jobs = 3;
  cfg.groups[0].agenda.period_s = 0.5;  // generous: device idles between jobs
  const FleetReport r = run_fleet(cfg);
  for (const auto& d : r.devices) {
    ASSERT_EQ(d.jobs.size(), 3u);
    for (int j = 0; j < 3; ++j) {
      const auto& jr = d.jobs[static_cast<std::size_t>(j)];
      EXPECT_DOUBLE_EQ(jr.release_s, 0.5 * j);
      EXPECT_GE(jr.start_s, jr.release_s);
      EXPECT_GT(jr.finish_s, jr.start_s);
      EXPECT_TRUE(jr.met_deadline);
    }
    // The square supply completes each MNIST job well inside 0.5 s, so
    // later jobs start at their release instant, not back-to-back.
    EXPECT_DOUBLE_EQ(d.jobs[1].start_s, d.jobs[1].release_s);
  }
}

TEST(Fleet, RejectsUnknownRuntime) {
  FleetConfig cfg = tiny_fleet();
  cfg.groups[0].agenda.runtime = "warp-drive";
  EXPECT_THROW(run_fleet(cfg), Error);
}

// Every adaptive group calibrates its completion model once, on its
// first device that asks; a group pinned to the tile tier by its burst
// budget (micro-cap) never asks.
TEST(Fleet, CalibratesOncePerGroupTemplate) {
  FleetConfig cfg;
  cfg.source = "square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5";
  cfg.offset_spread_s = 0.02;
  for (const char* name : {"a", "b", "micro"}) {
    FleetGroup g;
    g.name = name;
    g.count = 3;
    g.task = models::Task::kMnist;
    g.agenda.runtime = "adaptive";
    g.agenda.jobs = 1;
    g.agenda.period_s = 0.25;
    g.capacitance_f = std::string(name) == "micro" ? 0.05e-6 : 10e-6;
    g.max_reboots = 2000;
    g.sched_spec = "adaptive:sel=deadline,fc=periodic";
    cfg.groups.push_back(g);
  }
  for (const int jobs : {1, 3}) {
    FleetRunOptions ropts;
    ropts.jobs = jobs;
    const long before = sched::CompletionModel::calibrations_run();
    run_fleet(cfg, ropts);
    EXPECT_EQ(sched::CompletionModel::calibrations_run() - before, 2) << jobs << " workers";
  }
}

TEST(Fleet, BaselinesRerunThePopulation) {
  FleetRunOptions ropts;
  ropts.baseline_runtimes = {"flex", "ace"};
  const FleetReport r = run_fleet(tiny_fleet(), ropts);
  ASSERT_EQ(r.baselines.size(), 2u);
  EXPECT_EQ(r.baselines[0].runtime, "flex");
  // The population already runs flex, so the flex baseline must agree.
  EXPECT_EQ(r.baselines[0].jobs_completed, r.jobs_completed);
  EXPECT_EQ(r.baselines[0].jobs_in_deadline, r.jobs_in_deadline);
  EXPECT_EQ(r.baselines[1].runtime, "ace");
  EXPECT_LE(r.baselines[1].jobs_completed, r.total_jobs);
}

// A population whose agenda is hopeless half the time: a square "solar
// duty" source with long nights and a deadline one burst cannot meet at
// the night floor. Deadline-mode admission must refuse some releases.
FleetConfig admission_fleet() {
  FleetConfig cfg;
  cfg.source = "square:hi=5e-3,lo=0.05e-3,period=4,duty=0.5";
  cfg.offset_spread_s = 0.0;
  FleetGroup g;
  g.name = "admission";
  g.count = 1;
  g.task = models::Task::kMnist;
  g.agenda.runtime = "adaptive";
  g.agenda.jobs = 10;
  g.agenda.period_s = 0.5;
  g.agenda.deadline_s = 0.3;
  g.capacitance_f = 10e-6;
  g.sched_spec = "adaptive:sel=deadline,admit=budget,fc=periodic,probe=1";
  cfg.groups.push_back(g);
  return cfg;
}

TEST(FleetJson, V6AdmissionGolden) {
  // The FLEET schema's admission story end to end: real skipped
  // releases, the aggregate admission block, the per-job
  // skipped_infeasible verdict with its reclaimed-energy estimate, and
  // the admit-all comparison rerun.
  FleetRunOptions ropts;
  ropts.compare_admission = true;
  const FleetReport r = run_fleet(admission_fleet(), ropts);

  EXPECT_GT(r.jobs_skipped, 0) << "fixture: admission must actually refuse releases";
  EXPECT_GT(r.energy_reclaimed_j, 0.0);
  ASSERT_EQ(r.admission_baseline.size(), 1u);
  EXPECT_EQ(r.admission_baseline[0].runtime, "admit=all");
  // The admit-all rerun runs every release (none skipped there), so it
  // completes at least as many but spends the night grinding.
  EXPECT_GT(r.admission_baseline[0].jobs_completed, r.jobs_completed);

  int skipped_records = 0;
  double reclaimed = 0.0;
  for (const auto& d : r.devices) {
    for (const auto& j : d.jobs) {
      if (j.skipped_infeasible) {
        ++skipped_records;
        reclaimed += j.energy_reclaimed_j;
        EXPECT_FALSE(j.met_deadline);
        EXPECT_EQ(j.reboots, 0) << "a skipped release must never have booted";
        EXPECT_DOUBLE_EQ(j.energy_j, 0.0);
      }
    }
  }
  EXPECT_EQ(skipped_records, r.jobs_skipped);
  EXPECT_DOUBLE_EQ(reclaimed, r.energy_reclaimed_j);

  std::ostringstream os;
  write_fleet_json(os, r);
  const std::string j = os.str();
  for (const char* needle :
       {"\"schema\": \"ehdnn-fleet-v6\"", "\"admission\": {\"skipped_infeasible\":",
        "\"energy_reclaimed_j\":", "\"outcome\": \"skipped_infeasible\"",
        "\"admission_baseline\": [", "\"mode\": \"admit=all\"", "\"jobs_skipped\":",
        "\"detail\": \"full\"", "\"percentiles\": \"qsketch\"", "\"sketch_rel_err\": 0.01",
        "\"livelock\":", "\"total_steps\":", "\"metrics\":", "\"event.job_skip\":"}) {
    EXPECT_NE(j.find(needle), std::string::npos) << "missing " << needle;
  }
}

TEST(Sweep, JobsCountDoesNotChangeTheMatrix) {
  const std::vector<std::string> runtimes = {"ace", "flex"};
  const std::vector<models::Task> tasks = {models::Task::kMnist};
  const std::vector<ScenarioSpec> scenarios = {
      parse_scenario_arg("continuous=continuous"),
      parse_scenario_arg("square-10ms=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"),
      parse_scenario_arg("const-1.2mW=const:w=1.2e-3"),
  };

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 3;
  const ScenarioMatrix a = run_matrix(runtimes, tasks, scenarios, serial);
  const ScenarioMatrix b = run_matrix(runtimes, tasks, scenarios, parallel);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  std::ostringstream ja, jb;
  write_scenarios_json(ja, a);
  write_scenarios_json(jb, b);
  EXPECT_EQ(ja.str(), jb.str()) << "SCENARIOS.json must be byte-identical for any --jobs";
}

TEST(Sweep, RuntimeTableIsConsistent) {
  // One table builds keys, model variants, and policies: every key must
  // resolve through every accessor without desync.
  for (const auto& key : all_runtime_keys()) {
    ASSERT_NE(make_policy(key), nullptr) << key;
    (void)runtime_uses_compressed_model(key);  // must not throw
    (void)runtime_is_adaptive(key);
  }
  // Both per-boot scheduler modes are in the table (income ladder and
  // deadline selection), and nothing else is adaptive.
  int adaptive_keys = 0;
  for (const auto& key : all_runtime_keys()) adaptive_keys += runtime_is_adaptive(key);
  EXPECT_EQ(adaptive_keys, 2);
  EXPECT_TRUE(runtime_is_adaptive("adaptive"));
  EXPECT_TRUE(runtime_is_adaptive("adaptive-deadline"));
  EXPECT_THROW(make_policy("nope"), Error);
  EXPECT_THROW(runtime_uses_compressed_model("nope"), Error);
}

TEST(FleetFlags, ConflictMatrix) {
  // fleet_runner's three modes (run / --shard / --merge) share one
  // validated flag set; each row is a command-line shape and the
  // substring its diagnostic must contain ("" = accepted). Substring
  // matching keeps the table readable while still pinning which rule
  // fired — a row failing with the WRONG message is a real regression.
  struct Row {
    const char* name;
    FleetFlagSet f;
    const char* want;  // "" = valid, else a substring of the diagnostic
  };
  auto make = [](auto mutate) {
    FleetFlagSet f;
    mutate(f);
    return f;
  };
  const Row rows[] = {
      {"defaults", make([](FleetFlagSet&) {}), ""},
      {"plain merge",
       make([](FleetFlagSet& f) { f.merge = true; f.merge_inputs = 2; }), ""},
      {"merge without partials", make([](FleetFlagSet& f) { f.merge = true; }),
       "at least one partial"},
      {"merge with --shard", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.shard = 0;
       }),
       "--merge conflicts with --shard"},
      {"merge with --shards only", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.shards = 4;
       }),
       "--merge conflicts with --shard"},
      {"merge with --config", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.have_config = true;
       }),
       "--merge conflicts with --config"},
      {"merge with population flag", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.population_flag = "--devices";
       }),
       "--merge conflicts with --devices"},
      {"merge with baseline rerun", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.compare_fixed = true;
       }),
       "baseline reruns"},
      {"merge with trace selection", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.have_trace_devices = true;
       }),
       "trace selection happens at shard time"},
      {"merge exporting merged captures", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 2;
         f.have_trace_out = true;  // selection rode in on the partials
       }),
       ""},
      {"bare args without merge", make([](FleetFlagSet& f) { f.merge_inputs = 1; }),
       "only valid with --merge"},
      {"config plus population flag", make([](FleetFlagSet& f) {
         f.have_config = true;
         f.population_flag = "--seed";
       }),
       "--seed conflicts with --config"},
      {"shard run", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 1;
       }),
       ""},
      {"--shards without --shard", make([](FleetFlagSet& f) { f.shards = 2; }),
       "--shards needs --shard"},
      {"shard index out of range", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 2;
       }),
       "--shard must be < --shards (got --shard 2 with --shards 2)"},
      {"shard with baseline rerun", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 0;
         f.compare_admission = true;
       }),
       "whole-population"},
      {"shard with trace export", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 0;
         f.have_trace_out = true;
       }),
       "put --trace-out on"},
      {"trace export with selection", make([](FleetFlagSet& f) {
         f.have_trace_devices = true;
         f.have_trace_out = true;
         f.have_trace_text_out = true;
       }),
       ""},
      {"trace-out without selection",
       make([](FleetFlagSet& f) { f.have_trace_out = true; }),
       "--trace-out needs --trace-devices"},
      {"trace-text-out without selection",
       make([](FleetFlagSet& f) { f.have_trace_text_out = true; }),
       "--trace-text-out needs --trace-devices"},
      {"profile parallel", make([](FleetFlagSet& f) {
         f.profile = true;
         f.jobs = 4;
       }),
       "--profile needs --jobs 1"},
      {"profile serial", make([](FleetFlagSet& f) { f.profile = true; }), ""},
  };
  for (const Row& r : rows) {
    const std::string got = validate_fleet_flags(r.f);
    if (std::string(r.want).empty()) {
      EXPECT_EQ(got, "") << r.name;
    } else {
      EXPECT_NE(got.find(r.want), std::string::npos)
          << r.name << ": got \"" << got << "\"";
    }
  }
}

}  // namespace
}  // namespace ehdnn::sim
