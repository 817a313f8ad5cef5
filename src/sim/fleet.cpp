#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/ace/compiled_model.h"
#include "power/capacitor.h"
#include "power/factory.h"
#include "power/monitor.h"
#include "sched/adaptive.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/format.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/qsketch.h"
#include "util/rng.h"
#include "util/spec.h"

namespace ehdnn::sim {

namespace {

// Accuracy of the streaming latency/staleness percentile sketches — part
// of the v5 schema (echoed as sketch_rel_err) and of the shard-merge
// contract (sketches only merge at equal rel_err).
constexpr double kSketchRelErr = 0.01;

// Everything one simulated device owns. Pointer-stable (held by
// unique_ptr) because supplies, executors and the job queue point into it.
// The compiled models are SHARED with the device's group template (see
// GroupTemplate below): compilation is a pure function of (model,
// geometry), so every device in a homogeneous group points at one
// immutable CompiledModel instead of carrying a private copy of the
// weights and gather tables.
struct FleetDevice {
  power::TimeOffsetSource source;
  power::CapacitorSupply supply;
  dev::Device device;
  std::shared_ptr<const ace::CompiledModel> cm_primary;
  std::shared_ptr<const ace::CompiledModel> cm_dense;  // adaptive: co-resident twin
  std::vector<std::vector<fx::q15_t>> inputs;  // one per job
  std::unique_ptr<flex::RuntimePolicy> policy;
  // Lifecycle event sink: counts-only on every device (feeds the metrics
  // block), ring capture when the device is in trace_devices. Wired into
  // both RunOptions (executor/policy/queue sites) and the supply (kIdle).
  obs::EventTrace trace;
  flex::RunOptions opts;
  std::optional<sched::JobQueue> queue;  // constructed last (borrows the rest)

  FleetDevice(const power::HarvestSource& base, double offset,
              const power::CapacitorConfig& ccfg, const dev::DeviceConfig& dcfg,
              dev::DeviceSlabs* slabs)
      : source(base, offset), supply(source, ccfg), device(dcfg, slabs) {
    device.attach_supply(&supply);
  }
};

// JSON has no infinity: an unbounded deadline is emitted as -1.
double json_deadline(double v) { return std::isfinite(v) ? v : -1.0; }

void validate(const FleetConfig& cfg) {
  check_input(!cfg.groups.empty(), "fleet config: need at least one group");
  check_input(cfg.offset_spread_s >= 0.0, "fleet config: spread must be >= 0");
  std::set<std::string> names;
  long long population = 0;  // summed in 64 bits: total_devices() is an int
  for (const auto& g : cfg.groups) {
    const std::string where = "fleet group \"" + g.name + "\"";
    check_input(names.insert(g.name).second, where + ": duplicate group name");
    check_input(g.count >= 1, where + ": count must be >= 1");
    population += g.count;
    check_input(std::isfinite(g.capacitance_f) && g.capacitance_f > 0.0,
                      where + ": capacitance must be finite and > 0");
    check_input(g.max_off_s > 0.0, where + ": max_off must be > 0");
    check_input(g.max_reboots >= 1, where + ": reboots must be >= 1");
    check_input(g.max_futile >= 0, where + ": max_futile must be >= 0");
    check_input(g.agenda.jobs >= 1, where + ": jobs must be >= 1");
    check_input(g.agenda.period_s > 0.0, where + ": agenda period must be > 0");
    check_input(g.agenda.deadline_s > 0.0, where + ": deadline must be > 0");
    runtime_uses_compressed_model(g.agenda.runtime);  // throws on unknown key
    if (!g.sched_spec.empty()) {
      check_input(runtime_is_adaptive(g.agenda.runtime),
                        where + ": sched= only applies to the adaptive runtime");
      sched::parse_adaptive_spec(g.sched_spec);  // throws on malformed spec
    }
  }
  check_input(population <= std::numeric_limits<int>::max(),
                    "fleet config: population of " + std::to_string(population) +
                        " devices exceeds the limit of " +
                        std::to_string(std::numeric_limits<int>::max()));
}

// The model variants a group's runtime executes: adaptive ships both.
void group_variants(const FleetGroup& g, bool* need_compressed, bool* need_dense) {
  const bool adaptive = runtime_is_adaptive(g.agenda.runtime);
  const bool compressed = runtime_uses_compressed_model(g.agenda.runtime);
  *need_compressed = adaptive || compressed;
  *need_dense = adaptive || !compressed;
}

// One group's compile-once execution image. ace::compile is a pure
// function of (model, device geometry): it writes the weight image into
// FRAM and bump-allocates scratch plans, drawing no energy and touching
// no per-device randomness. So a homogeneous group compiles ONCE onto a
// template device at build time; every admitted device then (a) stamps
// its FRAM/SRAM from the template's post-compile image (MemoryRegion::
// clone_from — cost-free, exactly what the poke sequence would have
// produced) and (b) shares the immutable CompiledModel by pointer. This
// removes the per-device O(model) compile + weight copy from the hot
// admission path and collapses the group's model storage to one copy.
// An adaptive group's devices also share one CompletionSlot: the first
// device whose scheduler needs the completion model calibrates it for
// the whole group.
struct GroupTemplate {
  std::shared_ptr<const ace::CompiledModel> cm_primary;
  std::shared_ptr<const ace::CompiledModel> cm_dense;  // adaptive only
  std::shared_ptr<sched::CompletionSlot> completion;   // adaptive only
  std::unique_ptr<dev::Device> image;  // post-compile FRAM/SRAM snapshot
};

// Population-wide immutable state shared by every device build: the base
// harvest source, one model instance per (task, variant), each group's
// FRAM sizing and compiled template, and the device-id -> group mapping.
// Building a device needs nothing else, which is what lets a worker
// build each device only when it claims it (and shard processes build
// only their range).
struct FleetWorld {
  std::unique_ptr<power::HarvestSource> base_source;
  std::map<std::pair<int, bool>, quant::QuantModel> qms;
  std::vector<std::size_t> group_fram;
  std::vector<GroupTemplate> group_tpl;
  std::vector<std::size_t> device_group;  // device id -> group index
  int n = 0;
};

// Device coordinates, one definition for the engine and the shard merge.
// Groups own contiguous id ranges in config order.
std::vector<std::size_t> device_groups(const FleetConfig& cfg) {
  std::vector<std::size_t> group_of;
  group_of.reserve(static_cast<std::size_t>(cfg.total_devices()));
  for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
    for (int k = 0; k < cfg.groups[gi].count; ++k) group_of.push_back(gi);
  }
  return group_of;
}

// Device d of n sees the harvest shifted by d * offset_spread_s / n.
double device_offset(const FleetConfig& cfg, int d, int n) {
  return cfg.offset_spread_s * static_cast<double>(d) / static_cast<double>(n);
}

// A result carrying device d's report coordinates and nothing else.
FleetDeviceResult placed(const FleetConfig& cfg, const std::vector<std::size_t>& device_group,
                         int d) {
  const FleetGroup& g = cfg.groups[device_group[static_cast<std::size_t>(d)]];
  FleetDeviceResult res;
  res.device = d;
  res.group = g.name;
  res.offset_s = device_offset(cfg, d, static_cast<int>(device_group.size()));
  res.task = models::task_name(g.task);
  res.runtime = g.agenda.runtime;
  res.capacitance_f = g.capacitance_f;
  return res;
}

// Shard i of `shards` runs the device ids [begin, end) returned here.
std::pair<int, int> shard_range(int n, int shard, int shards) {
  return {static_cast<int>(static_cast<long long>(n) * shard / shards),
          static_cast<int>(static_cast<long long>(n) * (shard + 1) / shards)};
}

FleetWorld build_world(const FleetConfig& cfg) {
  FleetWorld w;
  w.base_source = power::make_harvest_source(cfg.source);
  w.n = cfg.total_devices();

  // One model instance per (task, variant) for the whole fleet, seeded
  // like the scenario sweep; each device gets its own derived inputs
  // (different users, different samples).
  for (const auto& g : cfg.groups) {
    bool need_c = false, need_d = false;
    group_variants(g, &need_c, &need_d);
    for (const bool compressed : {true, false}) {
      if (!(compressed ? need_c : need_d)) continue;
      const auto key = std::make_pair(static_cast<int>(g.task), compressed);
      if (w.qms.count(key) != 0) continue;
      Rng rng(cfg.seed + static_cast<std::uint64_t>(g.task));
      w.qms.emplace(key, models::make_deployed_qmodel(g.task, compressed, rng));
    }
  }

  // Auto-size each group's FRAM: compile its image(s) once on a scratch
  // device and take the cumulative footprint plus slack. Keeps a mixed
  // fleet's memory proportional to what each device actually ships
  // instead of provisioning every device for the largest dense twin.
  w.group_fram.resize(cfg.groups.size());
  w.group_tpl.resize(cfg.groups.size());
  for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
    const FleetGroup& g = cfg.groups[gi];
    const bool adaptive = runtime_is_adaptive(g.agenda.runtime);
    const bool primary_compressed = runtime_uses_compressed_model(g.agenda.runtime);
    if (g.fram_words != 0) {
      w.group_fram[gi] = g.fram_words;
    } else {
      bool need_c = false, need_d = false;
      group_variants(g, &need_c, &need_d);
      dev::DeviceConfig scratch_cfg = models::deployment_device_config(/*compressed=*/false);
      dev::Device scratch(scratch_cfg);
      std::size_t used = 0;
      bool first = true;
      for (const bool compressed : {true, false}) {
        if (!(compressed ? need_c : need_d)) continue;
        const auto& qm = w.qms.at({static_cast<int>(g.task), compressed});
        used = ace::compile(qm, scratch, /*co_resident=*/!first).fram_words_used;
        first = false;
      }
      w.group_fram[gi] = used + 1024;
    }

    // Bake the group's template: compile the image(s) this group's
    // runtime ships onto a device with the group's exact geometry, in
    // the exact order make_device used to (primary, then the dense twin
    // co-resident for adaptive groups), and keep the post-compile device
    // as the memory snapshot every admitted device is stamped from.
    GroupTemplate& tpl = w.group_tpl[gi];
    dev::DeviceConfig tcfg;
    tcfg.fram_words = w.group_fram[gi];
    tpl.image = std::make_unique<dev::Device>(tcfg);
    tpl.cm_primary = std::make_shared<const ace::CompiledModel>(
        ace::compile(w.qms.at({static_cast<int>(g.task), primary_compressed}), *tpl.image));
    if (adaptive) {
      tpl.cm_dense = std::make_shared<const ace::CompiledModel>(
          ace::compile(w.qms.at({static_cast<int>(g.task), false}), *tpl.image,
                       /*co_resident=*/true));
      tpl.completion = std::make_shared<sched::CompletionSlot>();
    }
  }

  w.device_group = device_groups(cfg);
  return w;
}

// Builds device `d` of the population. Depends only on (cfg, world, d),
// never on which devices exist around it — the property that makes the
// report independent of the job count and of the shard split.
std::unique_ptr<FleetDevice> make_device(const FleetWorld& w, const FleetConfig& cfg, int d,
                                         bool force_admit_all, dev::DeviceSlabs* slabs,
                                         flex::PhaseProfile* profile, long trace_capacity) {
  const std::size_t gi = w.device_group[static_cast<std::size_t>(d)];
  const FleetGroup& g = cfg.groups[gi];
  const bool adaptive = runtime_is_adaptive(g.agenda.runtime);

  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = g.capacitance_f;
  ccfg.max_off_s = g.max_off_s;

  const double offset = device_offset(cfg, d, w.n);
  dev::DeviceConfig dcfg;
  dcfg.fram_words = w.group_fram[gi];
  dcfg.scramble_seed =
      cfg.seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(d) + 1);

  auto fd = std::make_unique<FleetDevice>(*w.base_source, offset, ccfg, dcfg, slabs);
  // Stamp the group's compiled image instead of re-running ace::compile:
  // identical FRAM bytes and allocator state, one shared CompiledModel.
  const GroupTemplate& tpl = w.group_tpl[gi];
  fd->device.fram().clone_from(tpl.image->fram());
  fd->device.sram().clone_from(tpl.image->sram());
  fd->cm_primary = tpl.cm_primary;
  if (adaptive) fd->cm_dense = tpl.cm_dense;

  const std::size_t in_size = fd->cm_primary->model.layers.front().in_size();
  fd->inputs.resize(static_cast<std::size_t>(g.agenda.jobs));
  for (int j = 0; j < g.agenda.jobs; ++j) {
    Rng in_rng(cfg.seed ^ (0xf1ee7ull + static_cast<std::uint64_t>(d) * 0x10001ull +
                           static_cast<std::uint64_t>(j) * 0x9e3779b9ull));
    auto& input = fd->inputs[static_cast<std::size_t>(j)];
    input.resize(in_size);
    for (auto& v : input) v = static_cast<fx::q15_t>(in_rng.next_u64());
  }

  if (adaptive && !g.sched_spec.empty()) {
    sched::AdaptiveSpec aspec = sched::parse_adaptive_spec(g.sched_spec);
    if (force_admit_all) aspec.admit = sched::Admission::kAll;
    fd->policy = sched::make_adaptive_policy(std::move(aspec));
  } else {
    // The runtime table's own factory — which for the adaptive keys
    // already carries the key's default spec (income ladder for
    // "adaptive", deadline selection for "adaptive-deadline"). Both
    // admit every job, so force_admit_all has nothing to override here.
    fd->policy = make_policy(g.agenda.runtime);
  }
  const double worst_ck = sched::provision_deployment(
      *fd->policy, fd->device.cost(), *fd->cm_primary, fd->cm_dense.get(),
      fd->supply.burst_energy(), tpl.completion);
  fd->opts.max_reboots = g.max_reboots;
  fd->opts.max_futile_boots = g.max_futile;
  fd->opts.flex_v_warn = power::flex_warn_voltage(fd->supply.config(), worst_ck);
  fd->opts.profile = profile;  // JobQueue copies opts, so wire before emplace
  if (trace_capacity > 0) fd->trace.set_capacity(static_cast<std::size_t>(trace_capacity));
  fd->opts.trace = &fd->trace;  // counts-only unless the capacity above was set
  fd->supply.set_trace(&fd->trace);
  fd->queue.emplace(fd->device, *fd->policy, *fd->cm_primary, fd->opts, g.agenda, &fd->inputs);
  return fd;
}

// The shard partial's records as field tables, in wire order: a `row`
// line is "row ID" then kRowFields, a `job` line "job ID" then one
// JobRecord's kJobFields. The partial writer, the reader with its
// per-kind validation, the report's row sum and the merge's row-vs-jobs
// check all iterate these tables, so a field is added in one place.
constexpr std::tuple kRowFields{
    &DeviceRow::jobs_total,   &DeviceRow::jobs_completed, &DeviceRow::jobs_in_deadline,
    &DeviceRow::jobs_skipped, &DeviceRow::jobs_dnf,       &DeviceRow::jobs_starved,
    &DeviceRow::jobs_livelock, &DeviceRow::reboots,       &DeviceRow::tier_switches,
    &DeviceRow::steps,        &DeviceRow::energy_j,       &DeviceRow::energy_reclaimed_j,
    &DeviceRow::event_counts};
using sched::JobRecord;
constexpr std::tuple kJobFields{
    &JobRecord::job,          &JobRecord::release_s,    &JobRecord::start_s,
    &JobRecord::finish_s,     &JobRecord::latency_s,    &JobRecord::staleness_s,
    &JobRecord::outcome,      &JobRecord::met_deadline, &JobRecord::livelock,
    &JobRecord::skipped_infeasible, &JobRecord::runtime, &JobRecord::reboots,
    &JobRecord::checkpoints,  &JobRecord::progress_commits, &JobRecord::tier_switches,
    &JobRecord::energy_j,     &JobRecord::energy_reclaimed_j};

// Calls f with one field of every record passed (one record to put or
// get, two to sum or compare); an array field is visited element-wise.
template <typename F, typename... T>
void visit_field(F& f, T&... field) {
  f(field...);
}
template <typename F, std::size_t N, typename... T>
void visit_field(F& f, T (&... field)[N]) {
  for (std::size_t k = 0; k < N; ++k) f(field[k]...);
}
template <typename Table, typename F, typename... Rec>
void for_each_field(const Table& table, F&& f, Rec&... rec) {
  const auto one = [&](auto member) { visit_field(f, rec.*member...); };
  std::apply([&](auto... member) { (one(member), ...); }, table);
}

// Field codecs, one overload per kind; put() writes " VALUE". Counts are
// integers >= 0 and reals round-trip as %.17g, finite and >= 0 (every
// real in a partial is a simulated time or an energy). Flags are 0 or 1,
// outcomes are outcome_name() keys, tokens are whitespace-free strings.
// parse() returns false when `s` is not a value of the field's kind.
template <typename CountOrToken>
void put(std::ostream& os, const CountOrToken& v) {
  os << ' ' << v;
}
void put(std::ostream& os, double v) { os << ' ' << fmt_g17(v); }
void put(std::ostream& os, bool v) { os << ' ' << (v ? 1 : 0); }
void put(std::ostream& os, flex::Outcome v) { os << ' ' << flex::outcome_name(v); }

template <typename Count>
bool parse(const std::string& s, Count& v) {
  const auto n = parse_int(s, Count{0}, std::numeric_limits<Count>::max());
  if (n.has_value()) v = *n;
  return n.has_value();
}
bool parse(const std::string& s, double& v) {
  const auto d = parse_double(s);
  if (d.has_value()) v = *d;
  return d.has_value() && std::isfinite(v) && v >= 0.0;
}
bool parse(const std::string& s, bool& v) {
  v = s == "1";
  return v || s == "0";
}
bool parse(const std::string& s, flex::Outcome& v) {
  for (const auto o :
       {flex::Outcome::kCompleted, flex::Outcome::kDidNotFinish, flex::Outcome::kStarved}) {
    if (s == flex::outcome_name(o)) v = o;
  }
  return s == flex::outcome_name(v);
}
bool parse(const std::string& s, std::string& v) {
  v = s;
  return true;
}
// Reads the next token into `v`; false when it is missing or malformed.
template <typename T>
bool get(std::istream& is, T& v) {
  std::string s;
  return is >> s && parse(s, v);
}

// Sets the counters a device's job records determine: jobs_total, the
// verdict buckets, in_deadline, reboots, tier switches and both energies.
// The id, steps and event counts are left alone. distill() fills every
// row with it and the shard merge checks each row against it. The v5
// "dnf" bucket excludes livelocked runs (they get their own counter); v4
// folded them together.
void tally_jobs(const std::vector<sched::JobRecord>& jobs, DeviceRow* r) {
  r->jobs_total = r->jobs_completed = r->jobs_in_deadline = r->jobs_skipped = 0;
  r->jobs_dnf = r->jobs_starved = r->jobs_livelock = 0;
  r->reboots = r->tier_switches = 0;
  r->energy_j = r->energy_reclaimed_j = 0.0;
  for (const auto& j : jobs) {
    ++r->jobs_total;
    r->reboots += j.reboots;
    r->tier_switches += j.tier_switches;
    r->energy_j += j.energy_j;
    if (j.skipped_infeasible) {
      // An admission-refused release never ran: its verdict is its own
      // bucket, not a DNF.
      ++r->jobs_skipped;
      r->energy_reclaimed_j += j.energy_reclaimed_j;
    } else if (j.outcome == flex::Outcome::kCompleted) {
      ++r->jobs_completed;
    } else if (j.outcome == flex::Outcome::kStarved) {
      ++r->jobs_starved;
    } else if (j.livelock) {
      ++r->jobs_livelock;
    } else {
      ++r->jobs_dnf;
    }
    if (j.met_deadline) ++r->jobs_in_deadline;
  }
}

// Reduces a finished device to its result record: fleet coordinates, the
// job records and their tally, steps, event counts and any retained ring.
FleetDeviceResult distill(const FleetWorld& w, const FleetConfig& cfg, int d,
                          const FleetDevice& fd) {
  FleetDeviceResult res = placed(cfg, w.device_group, d);
  res.jobs = fd.queue->records();
  res.steps = fd.queue->steps();
  for (int k = 0; k < obs::kKindCount; ++k) res.event_counts[k] = fd.trace.counts()[k];
  if (fd.trace.capacity() > 0) {
    res.trace = obs::TraceCapture{d,
                                  "device " + std::to_string(d) + " " + res.group + " " +
                                      res.task + "/" + res.runtime,
                                  fd.trace.snapshot(), fd.trace.dropped(), fd.trace.total()};
  }
  tally_jobs(res.jobs, &res);
  return res;
}

// Built-in report sink: per-device rows plus the streaming
// latency/staleness sketches over completed jobs, the retained rings, and
// under detail=full every device's whole result for the per_device block
// (detail=aggregate keeps no job arrays, which is how 10^5-device
// populations stay small). Order-independent by construction — rows,
// devices and rings sort by id at finalize, sketch merges are bin-wise
// integer adds — so every execution path lands on the same bytes.
class ReportSink final : public FleetSink {
 public:
  explicit ReportSink(bool detail) : detail(detail) {}
  bool detail;
  std::vector<DeviceRow> rows;
  std::vector<FleetDeviceResult> devices;  // detail=full only
  QuantileSketch latency{kSketchRelErr};
  QuantileSketch staleness{kSketchRelErr};
  std::vector<obs::TraceCapture> traces;

  void record(const FleetDeviceResult& d) override {
    rows.push_back(d);  // the DeviceRow base
    if (detail) devices.push_back(d);
    for (const auto& j : d.jobs) {
      if (!j.skipped_infeasible && j.outcome == flex::Outcome::kCompleted) {
        latency.add(j.latency_s);
        staleness.add(j.staleness_s);
      }
    }
    if (d.trace) traces.push_back(*d.trace);
  }
  void merge(const FleetSink& other) override {
    const auto* o = dynamic_cast<const ReportSink*>(&other);
    check(o != nullptr, "FleetSink::merge: mismatched sink types");
    rows.insert(rows.end(), o->rows.begin(), o->rows.end());
    if (detail) devices.insert(devices.end(), o->devices.begin(), o->devices.end());
    latency.merge(o->latency);
    staleness.merge(o->staleness);
    traces.insert(traces.end(), o->traces.begin(), o->traces.end());
  }
  void finalize() override {
    const auto by_id = [](const auto& a, const auto& b) { return a.device < b.device; };
    std::sort(rows.begin(), rows.end(), by_id);
    std::sort(devices.begin(), devices.end(), by_id);
    std::sort(traces.begin(), traces.end(),
              [](const obs::TraceCapture& a, const obs::TraceCapture& b) {
                return a.id < b.id;
              });
  }
};

// The ONE aggregation path every mode funnels through — in-process runs
// and shard merges alike. Rows arrive sorted by device id; integer
// counters and double sums accumulate in that order, percentiles come
// from the sketches. This shared funnel is why `--jobs 8`, `--shards 4`
// and a serial run cannot disagree on a single byte.
FleetReport finalize_report(const FleetConfig& cfg, ReportSink& agg) {
  FleetReport r;
  r.config = cfg;
  r.sketch_rel_err = kSketchRelErr;
  DeviceRow sum;
  long* max_reboots = r.metrics.gauge("fleet.max_device_reboots");
  for (const DeviceRow& row : agg.rows) {
    for_each_field(kRowFields, [](auto& total, const auto& v) { total += v; }, sum, row);
    if (row.reboots > *max_reboots) *max_reboots = row.reboots;
  }
  for (int k = 0; k < obs::kKindCount; ++k) {
    *r.metrics.counter(std::string("event.") +
                       obs::event_name(static_cast<obs::EventKind>(k))) = sum.event_counts[k];
  }
  r.total_jobs = sum.jobs_total;
  r.jobs_completed = sum.jobs_completed;
  r.jobs_in_deadline = sum.jobs_in_deadline;
  r.jobs_skipped = sum.jobs_skipped;
  r.jobs_dnf = sum.jobs_dnf;
  r.jobs_starved = sum.jobs_starved;
  r.jobs_livelock = sum.jobs_livelock;
  r.energy_reclaimed_j = sum.energy_reclaimed_j;
  r.total_reboots = sum.reboots;
  r.total_tier_switches = sum.tier_switches;
  r.total_steps = sum.steps;
  r.total_energy_j = sum.energy_j;
  if (agg.latency.count() > 0) {
    r.latency_p50_s = agg.latency.quantile(0.50);
    r.latency_p90_s = agg.latency.quantile(0.90);
    r.latency_p99_s = agg.latency.quantile(0.99);
    r.latency_max_s = agg.latency.max();
    r.staleness_p50_s = agg.staleness.quantile(0.50);
    r.staleness_p90_s = agg.staleness.quantile(0.90);
    r.staleness_p99_s = agg.staleness.quantile(0.99);
    r.staleness_max_s = agg.staleness.max();
  }
  r.completion_rate =
      r.total_jobs == 0 ? 0.0
                        : static_cast<double>(r.jobs_completed) / static_cast<double>(r.total_jobs);
  r.deadline_rate =
      r.total_jobs == 0
          ? 0.0
          : static_cast<double>(r.jobs_in_deadline) / static_cast<double>(r.total_jobs);
  long* trace_dropped = r.metrics.counter("trace.dropped_events");
  for (const obs::TraceCapture& cap : agg.traces) *trace_dropped += cap.dropped;
  r.traces = std::move(agg.traces);
  r.devices = std::move(agg.devices);
  return r;
}

void print_verbose(const FleetDeviceResult& res) {
  std::fprintf(stderr,
               "fleet dev %3d [%s %s/%s]: %d/%d jobs completed, %d in deadline, "
               "%ld reboots, %ld switches\n",
               res.device, res.group.c_str(), res.task.c_str(), res.runtime.c_str(),
               res.jobs_completed, res.jobs_total, res.jobs_in_deadline, res.reboots,
               res.tier_switches);
}

// Drives devices [begin, end) to completion, feeds each result to the
// attached sinks and then `agg`, and finalizes them all. Devices are
// independent, so one loop serves every job count: workers claim device
// ids (util/parallel.h), build the device, drain its agenda and deliver
// the result. Each worker owns one slab slot: a finished device donates
// its SRAM/FRAM word buffers to it and the worker's next device is built
// from them, so the two big per-device arrays are allocated once per
// worker, not once per device. (Groups can differ in FRAM size; the
// adopting region resizes, which still reuses capacity when the next
// group's image is no larger.)
void run_range(const FleetWorld& w, const FleetConfig& cfg, int begin, int end,
               const FleetRunOptions& opts, std::vector<FleetSink*> sinks, ReportSink& agg) {
  // Wall-clock phase attribution (--profile) is one unsynchronized sink;
  // validate_run_options only lets it through with jobs == 1, which runs
  // the loop inline. Device construction is timed into build_s here; the
  // executor attributes its own slices.
  flex::PhaseProfile* const prof = opts.profile;
  // Ring capture only for the ids in trace_devices (the counts-only trace
  // is unconditional, wired inside make_device).
  auto trace_cap_of = [&](int d) -> long {
    for (const int id : opts.trace_devices) {
      if (id == d) return std::max<long>(1, opts.trace_capacity);
    }
    return 0;
  };
  sinks.push_back(&agg);
  std::vector<dev::DeviceSlabs> slabs(static_cast<std::size_t>(std::max(opts.jobs, 1)));
  std::mutex mu;
  parallel_for(static_cast<std::size_t>(end - begin), opts.jobs, [&](std::size_t i, int worker) {
    const int d = begin + static_cast<int>(i);
    dev::DeviceSlabs& slot = slabs[static_cast<std::size_t>(worker)];
    const auto t0 = std::chrono::steady_clock::now();
    auto fd = make_device(w, cfg, d, opts.force_admit_all, &slot, prof, trace_cap_of(d));
    if (prof != nullptr) {
      prof->build_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    while (fd->queue->step()) {
    }
    if (prof != nullptr) *prof->sram_fills += fd->device.sram_fills();
    const FleetDeviceResult res = distill(w, cfg, d, *fd);
    fd->device.release_slabs(slot);
    const std::lock_guard<std::mutex> lock(mu);
    for (FleetSink* s : sinks) s->record(res);
    if (opts.verbose) print_verbose(res);
  });
  for (FleetSink* s : sinks) s->finalize();
}

// One parsed shard partial (schema ehdnn-fleet-shard-v2). Its sink holds
// each device's job lines as a result with only `device` and `jobs` set.
struct ShardPartial {
  int shard = 0;
  int shards = 0;
  int begin = 0;
  int end = 0;
  std::string config_text;  // the echoed config, verbatim
  ReportSink agg{/*detail=*/true};
};

// Parses and audits one partial, so that a hand-edited one cannot merge
// into a report that contradicts itself (BENCHMARKS.md "Sharding" lists
// every rejection). Rows and job blocks must come in id order.
ShardPartial parse_shard_partial(std::istream& is, const std::string& where) {
  ShardPartial p;
  std::string line;
  check_input(static_cast<bool>(std::getline(is, line)) && line == "ehdnn-fleet-shard-v2",
              where + ": not a fleet shard partial (bad magic; v1 partials predate "
                      "event tracing — regenerate with this build)");
  check_input(static_cast<bool>(std::getline(is, line)), where + ": truncated header");
  {
    std::istringstream hs(line);
    std::string tag;
    hs >> tag >> p.shard >> p.shards >> p.begin >> p.end;
    check_input(tag == "range" && !hs.fail(), where + ": bad range line \"" + line + "\"");
  }
  check_input(static_cast<bool>(std::getline(is, line)) && line == "config-begin",
              where + ": missing config echo");
  while (std::getline(is, line) && line != "config-end") p.config_text += line + "\n";
  check_input(line == "config-end", where + ": unterminated config echo");

  auto& rows = p.agg.rows;
  auto& devices = p.agg.devices;
  const std::string rows_rule = where + ": rows must be devices [" + std::to_string(p.begin) +
                                ", " + std::to_string(p.end) + "), once each in id order";
  const auto check_device = [&](int id) {
    check_input(id >= p.begin && id < p.end,
                where + ": device " + std::to_string(id) + " has no row in \"" + line + "\"");
  };
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag, extra;
    ls >> tag;
    if (tag == "end") {
      saw_end = true;
      break;
    } else if (tag == "sketch") {
      std::string which;
      ls >> which;
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      QuantileSketch* const sketch = which == "latency"     ? &p.agg.latency
                                     : which == "staleness" ? &p.agg.staleness
                                                            : nullptr;
      check_input(sketch != nullptr, where + ": unknown sketch \"" + which + "\"");
      *sketch = QuantileSketch::deserialize(rest);
      check_input(sketch->rel_err() == kSketchRelErr,
                        where + ": sketch \"" + which + "\" has a foreign rel_err");
    } else if (tag == "row") {
      DeviceRow r;
      bool ok = get(ls, r.device);
      for_each_field(kRowFields, [&](auto& v) { ok = ok && get(ls, v); }, r);
      check_input(ok && !(ls >> extra), where + ": bad row \"" + line + "\"");
      check_input(
          static_cast<long long>(r.device) == p.begin + static_cast<long long>(rows.size()),
          rows_rule + ", got \"" + line + "\"");
      check_input(
          r.jobs_completed + r.jobs_dnf + r.jobs_starved + r.jobs_livelock + r.jobs_skipped ==
              r.jobs_total,
          where + ": verdict buckets do not sum to jobs_total in row \"" + line + "\"");
      check_input(r.jobs_in_deadline <= r.jobs_total,
                  where + ": in_deadline exceeds jobs_total in row \"" + line + "\"");
      rows.push_back(r);
    } else if (tag == "trace") {
      obs::TraceCapture cap;
      std::size_t n_events = 0;
      check_input(get(ls, cap.id) && get(ls, n_events) && get(ls, cap.dropped) &&
                      get(ls, cap.total),
                  where + ": bad trace header \"" + line + "\"");
      check_device(cap.id);
      std::getline(ls, cap.label);
      if (!cap.label.empty() && cap.label.front() == ' ') cap.label.erase(0, 1);
      for (std::size_t i = 0; i < n_events; ++i) {
        check_input(static_cast<bool>(std::getline(is, line)), where + ": truncated trace");
        std::istringstream es(line);
        std::string etag;
        int kind = 0;
        obs::Event e;
        const bool ok = es >> etag && get(es, e.t_s) && es >> kind >> e.a >> e.b;
        check_input(etag == "ev" && ok && kind >= 0 && kind < obs::kKindCount,
                    where + ": bad event line \"" + line + "\"");
        e.kind = static_cast<obs::EventKind>(kind);
        cap.events.push_back(e);
      }
      p.agg.traces.push_back(std::move(cap));
    } else if (tag == "job") {
      int device = 0;
      sched::JobRecord j;
      bool ok = get(ls, device);
      for_each_field(kJobFields, [&](auto& v) { ok = ok && get(ls, v); }, j);
      check_input(ok && !(ls >> extra), where + ": bad job line \"" + line + "\"");
      check_device(device);
      if (devices.empty() || devices.back().device < device) {
        devices.emplace_back().device = device;
      }
      check_input(devices.back().device == device,
                  where + ": job lines must come in one block per device, in id order, " +
                      "got \"" + line + "\"");
      devices.back().jobs.push_back(std::move(j));
    } else {
      fail_input(where + ": unknown record \"" + tag + "\"");
    }
  }
  check_input(saw_end, where + ": truncated partial (no end marker)");
  check_input(static_cast<long long>(rows.size()) == static_cast<long long>(p.end) - p.begin,
              rows_rule);
  for (const FleetDeviceResult& d : devices) {
    const DeviceRow& row = rows[static_cast<std::size_t>(d.device - p.begin)];
    DeviceRow tally = row;
    tally_jobs(d.jobs, &tally);
    bool same = true;
    const auto same_bits = [&](const auto& a, const auto& b) {
      same = same && std::memcmp(&a, &b, sizeof a) == 0;
    };
    for_each_field(kRowFields, same_bits, tally, row);
    check_input(same, where + ": the row of device " + std::to_string(d.device) +
                          " disagrees with its job lines");
  }
  return p;
}

}  // namespace

int FleetConfig::total_devices() const {
  int n = 0;
  for (const auto& g : groups) n += g.count;
  return n;
}

// parse_task takes the lowercase key, task_name() returns the display
// name — the writer must emit the key or the round-trip breaks.
static const char* task_key(models::Task t) {
  switch (t) {
    case models::Task::kMnist: return "mnist";
    case models::Task::kHar: return "har";
    case models::Task::kOkg: return "okg";
  }
  return "?";
}

FleetConfig parse_fleet_config(std::istream& is) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kPos = SpecArgs::kPositive;
  constexpr long kMaxRunLimit = 1'000'000'000'000'000;
  FleetConfig cfg;
  bool saw_fleet_line = false;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string where = "fleet config line " + std::to_string(lineno);
    // Strip comments, tokenize on whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    for (std::string t; ls >> t;) tokens.push_back(t);
    if (tokens.empty()) continue;
    SpecArgs a(where, std::span(tokens).subspan(1));

    if (tokens[0] == "fleet") {
      check_input(!saw_fleet_line, where + ": duplicate fleet line");
      saw_fleet_line = true;
      cfg.source = a.str("source", cfg.source);
      cfg.offset_spread_s = a.num("spread", cfg.offset_spread_s, 0.0, kInf);
      cfg.seed = a.integer<std::uint64_t>("seed", cfg.seed, 0,
                                          std::numeric_limits<std::uint64_t>::max());
      const std::string detail = a.str("detail", cfg.per_device_detail ? "full" : "aggregate");
      check_input(detail == "full" || detail == "aggregate",
                        where + ": detail must be \"full\" or \"aggregate\", got \"" + detail +
                            "\"");
      cfg.per_device_detail = detail == "full";
    } else if (tokens[0] == "group") {
      FleetGroup g;
      g.name = a.str("name", "group" + std::to_string(cfg.groups.size()));
      g.count = a.integer("count", g.count, 1, 1'000'000'000);
      g.task = models::parse_task(a.str("task", task_key(g.task)));
      g.agenda.runtime = a.str("runtime", g.agenda.runtime);
      g.capacitance_f = a.num("cap", g.capacitance_f, power::kMinCapacitanceF, kInf);
      g.max_off_s = a.num("max_off", g.max_off_s, kPos, kInf);
      g.max_reboots = a.integer("reboots", g.max_reboots, 1L, kMaxRunLimit);
      g.max_futile = a.integer("max_futile", g.max_futile, 0L, kMaxRunLimit);
      g.agenda.jobs = a.integer("jobs", g.agenda.jobs, 1, 1'000'000'000);
      g.agenda.period_s = a.num("period", g.agenda.period_s, kPos, kInf);
      // deadline=inf is the default (no deadline), which
      // write_fleet_config emits for such a group.
      g.agenda.deadline_s = a.str("deadline") == "inf"
                                ? kInf
                                : a.num("deadline", g.agenda.deadline_s, kPos, kInf);
      g.sched_spec = a.str("sched");
      g.fram_words = a.integer<std::size_t>("fram", g.fram_words, 0, 1'000'000'000'000);
      cfg.groups.push_back(std::move(g));
    } else {
      fail_input(where + ": expected \"fleet\" or \"group\", got \"" + tokens[0] + "\"");
    }
    a.finish();
  }
  validate(cfg);
  return cfg;
}

FleetConfig parse_fleet_config_file(const std::string& path) {
  std::ifstream f(path);
  check_input(f.good(), "fleet config: cannot read " + path);
  return parse_fleet_config(f);
}

void write_fleet_config(std::ostream& os, const FleetConfig& cfg) {
  os << "fleet source=" << cfg.source << " spread=" << fmt_g17(cfg.offset_spread_s)
     << " seed=" << cfg.seed << " detail=" << (cfg.per_device_detail ? "full" : "aggregate")
     << "\n";
  for (const FleetGroup& g : cfg.groups) {
    os << "group name=" << g.name << " count=" << g.count
       << " task=" << task_key(g.task) << " runtime=" << g.agenda.runtime
       << " cap=" << fmt_g17(g.capacitance_f) << " max_off=" << fmt_g17(g.max_off_s)
       << " reboots=" << g.max_reboots << " max_futile=" << g.max_futile
       << " jobs=" << g.agenda.jobs << " period=" << fmt_g17(g.agenda.period_s)
       << " deadline=" << fmt_g17(g.agenda.deadline_s);
    if (!g.sched_spec.empty()) os << " sched=" << g.sched_spec;
    if (g.fram_words != 0) os << " fram=" << g.fram_words;
    os << "\n";
  }
}

FleetEngine::FleetEngine(FleetConfig cfg) : cfg_(std::move(cfg)) { validate(cfg_); }

FleetEngine& FleetEngine::add_sink(FleetSink& sink) {
  sinks_.push_back(&sink);
  return *this;
}

// Shared FleetRunOptions validation: the profile request must never be
// silently dropped (jobs > 1 has no synchronized sink — satellite of the
// observability PR), and trace selections must name real devices.
static void validate_run_options(const FleetRunOptions& ropts, int n) {
  check(ropts.profile == nullptr || std::max(ropts.jobs, 1) == 1,
        "fleet: --profile needs --jobs 1 (one shared, unsynchronized sink); "
        "the request used to be silently ignored under a worker pool");
  for (const int id : ropts.trace_devices) {
    check_input(id >= 0 && id < n,
                "fleet: trace device id " + std::to_string(id) + " out of range [0, " +
                    std::to_string(n) + ")");
  }
  check(ropts.trace_capacity >= 1, "fleet: trace_capacity must be >= 1");
}

FleetReport FleetEngine::run(const FleetRunOptions& ropts) {
  const auto wall0 = std::chrono::steady_clock::now();
  const FleetWorld w = build_world(cfg_);
  validate_run_options(ropts, w.n);
  if (ropts.profile != nullptr) {
    // World build (model gen + per-group template compiles) is build
    // time, like device stamping.
    ropts.profile->build_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  }

  ReportSink agg(cfg_.per_device_detail);
  run_range(w, cfg_, 0, w.n, ropts, sinks_, agg);

  FleetReport r = finalize_report(cfg_, agg);
  if (ropts.profile != nullptr) {
    // Whatever the attributed phases did not claim is engine overhead:
    // the device loop, sinks, reporting, and instrumentation slack.
    flex::PhaseProfile& p = *ropts.profile;
    const double total =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    p.engine_s = std::max(
        0.0, total - p.build_s - p.recharge_s - p.boot_s - p.kernel_s - p.checkpoint_s);
  }

  // Fixed-runtime baselines: the same population with every agenda forced
  // to one key — the "adaptive vs best fixed runtime" evidence.
  for (const auto& key : ropts.baseline_runtimes) {
    FleetConfig bc = cfg_;
    for (auto& g : bc.groups) {
      g.agenda.runtime = key;
      g.sched_spec.clear();
      g.fram_words = 0;  // re-auto-size for the forced variant
    }
    FleetRunOptions bo;
    bo.jobs = ropts.jobs;
    const FleetReport br = FleetEngine(bc).run(bo);
    r.baselines.push_back({key, br.jobs_completed, br.jobs_in_deadline});
    if (ropts.verbose) {
      std::fprintf(stderr, "fleet baseline %-8s: %d jobs completed, %d in deadline\n",
                   key.c_str(), br.jobs_completed, br.jobs_in_deadline);
    }
  }

  // Admission comparison: the same population with energy-budgeted
  // admission forced off — every release runs, doomed or not.
  if (ropts.compare_admission) {
    FleetRunOptions ao;
    ao.jobs = ropts.jobs;
    ao.force_admit_all = true;
    const FleetReport ar = FleetEngine(cfg_).run(ao);
    r.admission_baseline.push_back({"admit=all", ar.jobs_completed, ar.jobs_in_deadline});
    if (ropts.verbose) {
      std::fprintf(stderr, "fleet admit=all baseline: %d jobs completed, %d in deadline\n",
                   ar.jobs_completed, ar.jobs_in_deadline);
    }
  }
  return r;
}

void FleetEngine::run_shard(std::ostream& os, int shard, int shards,
                            const FleetRunOptions& ropts) {
  check(shards >= 1, "run_shard: shards must be >= 1");
  check(shard >= 0 && shard < shards, "run_shard: shard index out of range");
  check(ropts.baseline_runtimes.empty() && !ropts.compare_admission,
        "run_shard: baseline/admission reruns are whole-population operations");
  const FleetWorld w = build_world(cfg_);
  validate_run_options(ropts, w.n);
  const auto [begin, end] = shard_range(w.n, shard, shards);

  ReportSink agg(cfg_.per_device_detail);
  run_range(w, cfg_, begin, end, ropts, sinks_, agg);

  os << "ehdnn-fleet-shard-v2\n";
  os << "range " << shard << " " << shards << " " << begin << " " << end << "\n";
  os << "config-begin\n";
  write_fleet_config(os, cfg_);
  os << "config-end\n";
  os << "sketch latency ";
  agg.latency.serialize(os);
  os << "\nsketch staleness ";
  agg.staleness.serialize(os);
  os << "\n";
  for (const DeviceRow& r : agg.rows) {
    os << "row " << r.device;
    for_each_field(kRowFields, [&](const auto& v) { put(os, v); }, r);
    os << "\n";
  }
  // v2: retained event rings of this shard's trace_devices selections.
  // Timestamps round-trip as %.17g, so the merged captures are
  // bit-identical to an unsharded run's.
  for (const obs::TraceCapture& cap : agg.traces) {
    os << "trace " << cap.id << " " << cap.events.size() << " " << cap.dropped << " "
       << cap.total << " " << cap.label << "\n";
    for (const obs::Event& e : cap.events) {
      os << "ev " << fmt_g17(e.t_s) << " " << static_cast<int>(e.kind) << " " << e.a << " "
         << e.b << "\n";
    }
  }
  for (const FleetDeviceResult& d : agg.devices) {
    for (const sched::JobRecord& j : d.jobs) {
      os << "job " << d.device;
      for_each_field(kJobFields, [&](const auto& v) { put(os, v); }, j);
      os << "\n";
    }
  }
  os << "end\n";
}

FleetReport merge_fleet_shards(const std::vector<std::string>& paths) {
  check_input(!paths.empty(), "merge_fleet_shards: need at least one partial");
  std::vector<ShardPartial> parts;
  parts.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream f(path);
    check_input(f.good(), "merge_fleet_shards: cannot read " + path);
    parts.push_back(parse_shard_partial(f, path));
  }
  const int shards = parts.front().shards;
  check_input(static_cast<std::size_t>(shards) == parts.size(),
              "merge_fleet_shards: expected " + std::to_string(shards) + " partials, got " +
                  std::to_string(parts.size()));
  std::sort(parts.begin(), parts.end(),
            [](const ShardPartial& a, const ShardPartial& b) { return a.shard < b.shard; });

  std::istringstream cs(parts.front().config_text);
  const FleetConfig cfg = parse_fleet_config(cs);
  const int n = cfg.total_devices();
  ReportSink agg(cfg.per_device_detail);
  for (int i = 0; i < shards; ++i) {
    const ShardPartial& p = parts[static_cast<std::size_t>(i)];
    check_input(p.shard == i,
                "merge_fleet_shards: missing or duplicate shard " + std::to_string(i));
    check_input(p.shards == shards, "merge_fleet_shards: inconsistent shard counts");
    check_input(p.config_text == parts.front().config_text,
                "merge_fleet_shards: partials ran different configs");
    const auto [begin, end] = shard_range(n, i, shards);
    check_input(p.begin == begin && p.end == end,
                "merge_fleet_shards: shard " + std::to_string(i) + " covers the wrong range");
    check_input(!cfg.per_device_detail || p.agg.devices.size() == p.agg.rows.size(),
                "merge_fleet_shards: shard " + std::to_string(i) + " is missing job records");
    agg.merge(p.agg);
  }
  agg.finalize();

  // Each partial has one job block per row, so after the sort the i-th
  // block is the i-th row's device. Its result is assembled as distill()
  // does in-process: coordinates from the config, counters from the row
  // (already checked against these jobs), jobs from the job lines.
  const std::vector<std::size_t> device_group = device_groups(cfg);
  for (std::size_t i = 0; i < agg.devices.size(); ++i) {
    FleetDeviceResult& res = agg.devices[i];
    std::vector<sched::JobRecord> jobs = std::move(res.jobs);
    res = placed(cfg, device_group, agg.rows[i].device);
    static_cast<DeviceRow&>(res) = agg.rows[i];
    res.jobs = std::move(jobs);
  }
  return finalize_report(cfg, agg);
}

FleetReport run_fleet(const FleetConfig& cfg, const FleetRunOptions& ropts) {
  return FleetEngine(cfg).run(ropts);
}

void write_fleet_json(std::ostream& os, const FleetReport& r) {
  const FleetConfig& c = r.config;
  os << "{\n  \"schema\": \"ehdnn-fleet-v6\",\n";
  os << "  \"seed\": " << c.seed << ",\n";
  os << "  \"source\": " << json_str(c.source) << ",\n";
  os << "  \"offset_spread_s\": " << c.offset_spread_s << ",\n";
  os << "  \"devices\": " << c.total_devices() << ",\n";
  os << "  \"detail\": " << json_str(c.per_device_detail ? "full" : "aggregate") << ",\n";
  os << "  \"groups\": [\n";
  for (std::size_t i = 0; i < c.groups.size(); ++i) {
    const FleetGroup& g = c.groups[i];
    os << "    {\"name\": " << json_str(g.name) << ", \"count\": " << g.count
       << ", \"task\": " << json_str(models::task_name(g.task))
       << ", \"runtime\": " << json_str(g.agenda.runtime)
       << ", \"capacitance_f\": " << g.capacitance_f << ", \"max_off_s\": " << g.max_off_s
       << ", \"max_futile\": " << g.max_futile
       << ",\n     \"jobs\": " << g.agenda.jobs << ", \"period_s\": " << g.agenda.period_s
       << ", \"deadline_s\": " << json_deadline(g.agenda.deadline_s)
       << ", \"sched\": " << json_str(g.sched_spec) << "}"
       << (i + 1 < c.groups.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"aggregate\": {\n";
  os << "    \"total_jobs\": " << r.total_jobs << ", \"completed\": " << r.jobs_completed
     << ", \"in_deadline\": " << r.jobs_in_deadline << ", \"dnf\": " << r.jobs_dnf
     << ", \"starved\": " << r.jobs_starved << ", \"livelock\": " << r.jobs_livelock
     << ",\n";
  os << "    \"admission\": {\"skipped_infeasible\": " << r.jobs_skipped
     << ", \"energy_reclaimed_j\": " << r.energy_reclaimed_j << "},\n";
  os << "    \"completion_rate\": " << r.completion_rate
     << ", \"deadline_rate\": " << r.deadline_rate << ",\n";
  os << "    \"percentiles\": \"qsketch\", \"sketch_rel_err\": " << r.sketch_rel_err << ",\n";
  os << "    \"latency_p50_s\": " << r.latency_p50_s << ", \"latency_p90_s\": "
     << r.latency_p90_s << ", \"latency_p99_s\": " << r.latency_p99_s
     << ", \"latency_max_s\": " << r.latency_max_s << ",\n";
  os << "    \"staleness_p50_s\": " << r.staleness_p50_s << ", \"staleness_p90_s\": "
     << r.staleness_p90_s << ", \"staleness_p99_s\": " << r.staleness_p99_s
     << ", \"staleness_max_s\": " << r.staleness_max_s << ",\n";
  os << "    \"total_reboots\": " << r.total_reboots << ", \"tier_switches\": "
     << r.total_tier_switches << ", \"total_steps\": " << r.total_steps
     << ", \"total_energy_j\": " << r.total_energy_j << "\n  },\n";
  obs::write_metrics_json(os, r.metrics, "  ");
  os << ",\n";
  os << "  \"baselines\": [";
  for (std::size_t i = 0; i < r.baselines.size(); ++i) {
    const FleetBaseline& b = r.baselines[i];
    os << (i == 0 ? "\n" : "") << "    {\"runtime\": " << json_str(b.runtime)
       << ", \"jobs_completed\": " << b.jobs_completed
       << ", \"jobs_in_deadline\": " << b.jobs_in_deadline << "}"
       << (i + 1 < r.baselines.size() ? ",\n" : "\n  ");
  }
  os << "],\n";
  os << "  \"admission_baseline\": [";
  for (std::size_t i = 0; i < r.admission_baseline.size(); ++i) {
    const FleetBaseline& b = r.admission_baseline[i];
    os << (i == 0 ? "\n" : "") << "    {\"mode\": " << json_str(b.runtime)
       << ", \"jobs_completed\": " << b.jobs_completed
       << ", \"jobs_in_deadline\": " << b.jobs_in_deadline << "}"
       << (i + 1 < r.admission_baseline.size() ? ",\n" : "\n  ");
  }
  os << "],\n";
  os << "  \"per_device\": [";
  for (std::size_t i = 0; i < r.devices.size(); ++i) {
    const FleetDeviceResult& d = r.devices[i];
    os << (i == 0 ? "\n" : "") << "    {\"device\": " << d.device
       << ", \"group\": " << json_str(d.group)
       << ", \"offset_s\": " << d.offset_s << ", \"task\": " << json_str(d.task)
       << ", \"runtime\": " << json_str(d.runtime)
       << ", \"capacitance_f\": " << d.capacitance_f << ",\n     \"jobs_completed\": "
       << d.jobs_completed << ", \"jobs_in_deadline\": " << d.jobs_in_deadline
       << ", \"jobs_skipped\": " << d.jobs_skipped
       << ", \"reboots\": " << d.reboots << ", \"tier_switches\": " << d.tier_switches
       << ", \"energy_j\": " << d.energy_j << ", \"steps\": " << d.steps << ",\n";
    os << "     \"jobs\": [\n";
    for (std::size_t j = 0; j < d.jobs.size(); ++j) {
      const sched::JobRecord& jr = d.jobs[j];
      // The per-job verdict: admission skips get their own outcome
      // string (the run never started, so the runtime outcome would lie),
      // and a watchdog-tripped DNF reports as "livelock" (the run was
      // spinning, not merely slow).
      const std::string verdict = jr.skipped_infeasible
                                      ? "skipped_infeasible"
                                      : (jr.livelock ? "livelock"
                                                     : flex::outcome_name(jr.outcome));
      os << "      {\"job\": " << jr.job << ", \"release_s\": " << jr.release_s
         << ", \"start_s\": " << jr.start_s << ", \"finish_s\": " << jr.finish_s
         << ", \"latency_s\": " << jr.latency_s << ", \"staleness_s\": " << jr.staleness_s
         << ",\n       \"outcome\": " << json_str(verdict)
         << ", \"met_deadline\": " << (jr.met_deadline ? "true" : "false")
         << ", \"runtime\": " << json_str(jr.runtime) << ", \"reboots\": " << jr.reboots
         << ", \"checkpoints\": " << jr.checkpoints
         << ", \"progress_commits\": " << jr.progress_commits
         << ", \"tier_switches\": " << jr.tier_switches
         << ", \"energy_j\": " << jr.energy_j
         << ", \"energy_reclaimed_j\": " << jr.energy_reclaimed_j << "}"
         << (j + 1 < d.jobs.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < r.devices.size() ? ",\n" : "\n  ");
  }
  os << "]\n}\n";
}

}  // namespace ehdnn::sim
