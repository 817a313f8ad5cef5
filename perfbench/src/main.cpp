// perfbench: the repository benchmark runner. One process runs one
// workload in one mode and prints every metric by name, unit, direction
// and axis, then the result as one JSON object on the last stdout line.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-out FILE] [--state-dir DIR]
//
// --trace 0 measures the end-to-end metrics through the public entry
// points (sim::FleetEngine::run, sim::run_matrix), each pass paired with
// the same call into the frozen simulator copy. --trace 1 alternates
// untraced passes with traced replica passes and derives the per-layer
// metrics. Exit status: 0 when every correctness and reconciliation check
// passed, 1 when one failed, 2 on a usage error.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using ehdnn::obs::EventKind;

constexpr std::uint64_t kDefaultSeed = 0xb0a710ad;
constexpr int kSetupRepeats = 3;  // before the first pass; then one a round

const char* const kWorkloads[] = {"flex-square", "hetero-adaptive", "microcap-tile",
                                  "zoo-continuous"};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  std::string state_dir;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload flex-square|hetero-adaptive|microcap-tile|"
               "zoo-continuous [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE] "
               "[--state-dir DIR]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *err = flag + " needs a value";
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 0);
      if (v.empty() || *end != '\0' || v[0] == '-') {
        *err = "--seed needs a non-negative integer, got \"" + v + "\"";
        return false;
      }
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a->seconds > 0.0 && a->seconds <= 600.0)) {
        *err = "--seconds needs a number in (0, 600], got \"" + v + "\"";
        return false;
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        *err = "--trace needs 0 or 1, got \"" + v + "\"";
        return false;
      }
      a->trace = v == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else if (flag == "--state-dir") {
      a->state_dir = v;
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
  }
  for (const char* w : kWorkloads) {
    if (a->workload == w) return true;
  }
  *err = "unknown workload \"" + a->workload + "\"";
  return false;
}

// ---- metric catalogue --------------------------------------------------------

struct Metric {
  std::string name, unit, better, axis;  // axis: host | simulated
  double value = 0.0;
  Summary spread;  // host metrics: the per-pass samples behind `value`
  bool in_json = true;
};

std::string fmt(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Nearest-rank percentile of a sorted sample.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

Metric host(const std::string& name, const std::string& unit, const std::string& better,
            const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.better = better;
  m.axis = "host";
  m.spread = summarize(samples);
  m.value = m.spread.median;
  return m;
}

Metric simulated(const std::string& name, const std::string& unit, const std::string& better,
                 double v) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.better = better;
  m.axis = "simulated";
  m.value = v;
  return m;
}

std::vector<Metric> end_to_end(const std::vector<double>& setup, double rss_mb,
                               const std::vector<MainPass>& passes,
                               const std::vector<double>& speedups) {
  std::vector<double> jobs_per_s;
  for (const MainPass& p : passes) jobs_per_s.push_back(static_cast<double>(p.sim.jobs) / p.wall_s);
  const SimOutcome& s = passes.front().sim;
  const double jobs = static_cast<double>(s.jobs);
  // Printed, not gated: raw throughput follows the load other tenants put
  // on a shared host; host_speedup divides that out (see README).
  Metric raw = host("jobs_per_s", "1/s", "higher", jobs_per_s);
  raw.in_json = false;
  std::vector<Metric> out = {
      host("host_speedup", "x", "higher", speedups),
      raw,
      host("setup_s", "s", "lower", setup),
      host("peak_rss_mb", "MB", "lower", {rss_mb}),
      simulated("modeled_energy_per_job_j", "J", "lower",
                s.completed == 0 ? 0.0 : s.energy_j / static_cast<double>(s.completed)),
      simulated("completion_rate", "ratio", "higher", static_cast<double>(s.completed) / jobs),
      simulated("deadline_rate", "ratio", "higher", static_cast<double>(s.in_deadline) / jobs),
  };
  // Printed, not gated: the modeled latency is data-independent, so it
  // reads the same for every seed (see perfbench/README.md).
  Metric p50 = simulated("modeled_latency_p50_s", "s", "lower", nearest_rank(s.latencies_s, 0.50));
  p50.in_json = false;
  out.push_back(p50);
  // p90 only with at least 10 completed jobs beyond it.
  if (s.latencies_s.size() >= 100) {
    Metric p90 = simulated("modeled_latency_p90_s", "s", "lower", nearest_rank(s.latencies_s, 0.90));
    p90.in_json = false;
    out.push_back(p90);
  }
  return out;
}

// Per-layer values of one (untraced, traced) pass pair.
std::map<std::string, double> layer_values(const MainPass& untraced, const TracedPass& t) {
  const LayerCounts& c = t.counts;
  const std::vector<double> self = t.spans.self_seconds();
  auto self_of = [&](SpanKind k) { return self[static_cast<std::size_t>(k)]; };
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto slices = [&](SpanKind k) { return static_cast<double>(c.slices[static_cast<int>(k)]); };
  auto ev = [&](EventKind k) { return static_cast<double>(c.event(k)); };

  std::map<std::string, double> v;
  v["ace.kernel_s"] = self_of(SpanKind::kKernel);
  v["ace.kernel_slices"] = slices(SpanKind::kKernel);
  v["ace.us_per_kernel_slice"] = 1e6 * per(self_of(SpanKind::kKernel), slices(SpanKind::kKernel));
  v["ace.lost_slice_share"] =
      per(static_cast<double>(c.lost_kernel_slices), slices(SpanKind::kKernel));
  const char* groups[] = {"conv", "bcm", "fc", "other"};
  for (int g = 0; g < kLayerGroups; ++g) {
    v[std::string("ace.") + groups[g] + ".cycles"] = c.layer_cycles[g];
    v[std::string("ace.") + groups[g] + ".energy_j"] = c.layer_energy_j[g];
  }
  for (int r = 0; r < kRails; ++r) {
    v[std::string("device.") + ehdnn::dev::rail_name(static_cast<ehdnn::dev::Rail>(r)) +
      ".energy_j"] = c.rail_energy_j[r];
  }
  v["device.fram_wr.cycles"] = c.fram_wr_cycles;
  v["flex.checkpoint_s"] = self_of(SpanKind::kCheckpoint);
  v["flex.checkpoints"] = static_cast<double>(c.checkpoints);
  v["flex.us_per_checkpoint"] =
      1e6 * per(self_of(SpanKind::kCheckpoint), static_cast<double>(c.checkpoints));
  v["flex.boot_s"] = self_of(SpanKind::kBoot);
  v["flex.boots"] = slices(SpanKind::kBoot);
  v["flex.commits"] = ev(EventKind::kCommit);
  v["flex.tile_cursor_writes"] = ev(EventKind::kTileCursorWrite);
  v["power.recharge_s"] = self_of(SpanKind::kRecharge);
  v["power.recoveries"] = ev(EventKind::kRecovery);
  v["power.us_per_recovery"] = 1e6 * per(self_of(SpanKind::kRecharge), ev(EventKind::kRecovery));
  v["power.reboots_per_job"] = per(static_cast<double>(c.reboots), static_cast<double>(c.jobs));
  v["power.futile_boot_share"] = per(ev(EventKind::kFutileBoot), ev(EventKind::kBoot));
  v["sched.arm_s"] = self_of(SpanKind::kArm);
  v["sched.arms"] = slices(SpanKind::kArm);
  v["sched.select_s"] = self_of(SpanKind::kSelect);
  v["sched.selects"] = slices(SpanKind::kSelect);
  v["sched.tier_switches"] = ev(EventKind::kTierSwitch);
  v["sched.skips"] = ev(EventKind::kJobSkip);
  double spans = self_of(SpanKind::kBuild);
  for (int k = 0; k < kPhaseCount; ++k) spans += self[static_cast<std::size_t>(k)];
  v["sim.build_s"] = self_of(SpanKind::kBuild);
  v["sim.builds"] = static_cast<double>(c.builds);
  v["sim.engine_s"] = t.wall_s - spans;
  v["sim.us_per_slice"] = 1e6 * per(untraced.wall_s, static_cast<double>(c.total_slices()));
  v["trace.overhead_share"] = (t.wall_s - untraced.wall_s) / untraced.wall_s;
  return v;
}

struct LayerDef {
  std::string name;
  const char* unit;
  bool host;  // host time (median over traced passes) or an exact count
};

// Every per-layer metric, in print order. Units: s and us are host
// time; count, cycles and J are exact simulated quantities.
std::vector<LayerDef> layer_defs() {
  std::vector<LayerDef> d = {
      {"ace.kernel_s", "s", true},
      {"ace.kernel_slices", "count", false},
      {"ace.us_per_kernel_slice", "us", true},
      {"ace.lost_slice_share", "ratio", false},
  };
  for (const char* g : {"conv", "bcm", "fc", "other"}) {
    d.push_back({std::string("ace.") + g + ".cycles", "cycles", false});
    d.push_back({std::string("ace.") + g + ".energy_j", "J", false});
  }
  for (int r = 0; r < kRails; ++r) {
    d.push_back({std::string("device.") +
                     ehdnn::dev::rail_name(static_cast<ehdnn::dev::Rail>(r)) + ".energy_j",
                 "J", false});
  }
  const std::vector<LayerDef> rest = {
      {"device.fram_wr.cycles", "cycles", false},
      {"flex.checkpoint_s", "s", true},
      {"flex.checkpoints", "count", false},
      {"flex.us_per_checkpoint", "us", true},
      {"flex.boot_s", "s", true},
      {"flex.boots", "count", false},
      {"flex.commits", "count", false},
      {"flex.tile_cursor_writes", "count", false},
      {"power.recharge_s", "s", true},
      {"power.recoveries", "count", false},
      {"power.us_per_recovery", "us", true},
      {"power.reboots_per_job", "1/job", false},
      {"power.futile_boot_share", "ratio", false},
      {"sched.arm_s", "s", true},
      {"sched.arms", "count", false},
      {"sched.select_s", "s", true},
      {"sched.selects", "count", false},
      {"sched.tier_switches", "count", false},
      {"sched.skips", "count", false},
      {"sim.build_s", "s", true},
      {"sim.builds", "count", false},
      {"sim.engine_s", "s", true},
      {"sim.us_per_slice", "us", true},
      {"trace.overhead_share", "ratio", true},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

std::vector<Metric> per_layer(const std::vector<std::map<std::string, double>>& per_pass) {
  std::vector<Metric> out;
  for (const LayerDef& d : layer_defs()) {
    if (d.host) {
      std::vector<double> samples;
      for (const auto& v : per_pass) samples.push_back(v.at(d.name));
      out.push_back(host(d.name, d.unit, "lower", samples));
    } else {
      out.push_back(simulated(d.name, d.unit, "lower", per_pass.front().at(d.name)));
    }
  }
  return out;
}

void print_table(const std::vector<Metric>& ms) {
  std::printf("  %-28s %-22s %-7s %-7s %-9s %s\n", "metric", "value", "unit", "better", "axis",
              "q1 .. q3 (n)");
  for (const Metric& m : ms) {
    std::printf("  %-28s %-22s %-7s %-7s %-9s", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.better.c_str(), m.axis.c_str());
    if (m.axis == "host") {
      std::printf(" %s .. %s (n=%zu)", fmt(m.spread.q1).c_str(), fmt(m.spread.q3).c_str(),
                  m.spread.n);
    }
    std::printf("%s\n", m.in_json ? "" : "  [printed only]");
  }
}

// Simulated results must repeat across runs with one seed, too: the
// first run of a (workload, seed) leaves its signature in the state dir
// and every later one must match it.
void check_state(const Args& a, const std::string& signature, Checks& checks) {
  if (a.state_dir.empty()) return;
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof seed_hex, "%llx", static_cast<unsigned long long>(a.seed));
  const std::string path = a.state_dir + "/" + a.workload + "-" + seed_hex + ".sig";
  std::ifstream in(path);
  if (in.good()) {
    std::stringstream prev;
    prev << in.rdbuf();
    checks.expect(prev.str() == signature,
                  a.workload + ": simulated results differ from an earlier run with this seed");
    return;
  }
  std::ofstream out(path);
  out << signature;
}

int run(const Args& a) {
  std::unique_ptr<Workload> wl = a.workload == "zoo-continuous"
                                     ? make_zoo_workload(a.seed)
                                     : make_fleet_workload(a.workload, a.seed);
  Checks checks;

  // Set-up, a fixed number of times before the first pass (a fixed
  // amount of work before it keeps the memory high-water mark comparable
  // across runs), then once a round in untraced runs, so the median spans
  // the host load of the whole run.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) setup.push_back(wl->setup_once());

  const auto t0 = Clock::now();
  // The first pass warms caches and fixes the memory high-water mark,
  // before the frozen copy allocates anything.
  std::vector<MainPass> mains = {wl->run_main(checks)};
  const double rss_mb = peak_rss_mb();
  std::fprintf(stderr, "perfbench: pass 1 untraced %.4f s (warm-up)\n", mains.back().wall_s);
  if (a.trace == 0) {
    const frozen::Pass f = wl->run_frozen();
    std::fprintf(stderr, "perfbench: frozen warm-up %.4f s\n", f.wall_s);
  }

  // The measured loop: whole rounds while the next one still fits.
  // Untraced rounds pair a program pass with a frozen-copy pass, in
  // alternating order; traced rounds pair it with a traced pass.
  std::vector<double> speedups;  // frozen wall / program wall, per round
  // Traced passes keep their per-layer values and counts; only the last
  // one's spans are kept for writing out.
  std::vector<std::map<std::string, double>> layer_passes;
  std::vector<LayerCounts> traced_counts;
  SpanLog last_spans;
  for (int round = 0;; ++round) {
    if (a.trace == 0) {
      setup.push_back(wl->setup_once());
      frozen::Pass f;
      if (round % 2 == 1) f = wl->run_frozen();
      mains.push_back(wl->run_main(checks));
      if (round % 2 == 0) f = wl->run_frozen();
      checks.expect(f.jobs == mains.back().sim.jobs,
                    a.workload + ": the frozen copy ran another number of jobs");
      speedups.push_back(f.wall_s / mains.back().wall_s);
      std::fprintf(stderr, "perfbench: pass %zu untraced %.4f s, frozen %.4f s\n", mains.size(),
                   mains.back().wall_s, f.wall_s);
    } else {
      mains.push_back(wl->run_main(checks));
      std::fprintf(stderr, "perfbench: pass %zu untraced %.4f s", mains.size(),
                   mains.back().wall_s);
      TracedPass t = wl->run_traced(checks);
      std::fprintf(stderr, ", traced %.4f s\n", t.wall_s);
      layer_passes.push_back(layer_values(mains.back(), t));
      traced_counts.push_back(t.counts);
      last_spans = std::move(t.spans);
    }
    const double elapsed = seconds_between(t0, Clock::now());
    const double per_round = elapsed / static_cast<double>(round + 1);
    if (elapsed + per_round > a.seconds) break;
  }
  if (a.trace == 0) wl->verify_outputs(checks);

  // Steadiness: simulated results are bit-identical across passes.
  for (const MainPass& p : mains) {
    checks.expect(p.sim.signature == mains.front().sim.signature,
                  a.workload + ": simulated results differ between passes");
  }
  for (const LayerCounts& c : traced_counts) {
    checks.expect(c.same_as(traced_counts.front()),
                  a.workload + ": traced counts differ between passes");
  }
  check_state(a, mains.front().sim.signature, checks);

  long attempted = 0, unexpected = 0;
  for (const MainPass& p : mains) {
    attempted += p.sim.jobs;
    unexpected += p.sim.unexpected;
  }
  const std::vector<Metric> metrics =
      a.trace == 0 ? end_to_end(setup, rss_mb, mains, speedups) : per_layer(layer_passes);

  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d passes=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), fmt(a.seconds).c_str(),
              a.trace, mains.size());
  print_table(metrics);
  std::printf("  jobs: %ld simulated, %ld with an unexpected verdict\n", attempted, unexpected);
  if (a.trace == 1 && !a.spans_out.empty()) {
    last_spans.write_tsv(a.spans_out);
    std::printf("  spans: %zu -> %s\n", last_spans.size(), a.spans_out.c_str());
  }

  for (const Metric& m : metrics) {
    checks.expect(std::isfinite(m.value), a.workload + ": " + m.name + " is not finite");
  }
  std::printf("  checks: %ld passed, %ld failed\n", checks.passed(), checks.failed());
  for (const std::string& f : checks.failures()) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  const long failed = unexpected + checks.failed();
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? fmt(m.value) : std::string("0")) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  std::string err;
  if (!perfbench::parse_args(argc, argv, &a, &err)) return perfbench::usage(err.c_str());
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
