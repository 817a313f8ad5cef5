#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
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
  check(!cfg.groups.empty(), "fleet config: need at least one group");
  check(cfg.offset_spread_s >= 0.0, "fleet config: spread must be >= 0");
  std::set<std::string> names;
  for (const auto& g : cfg.groups) {
    const std::string where = "fleet group \"" + g.name + "\"";
    check(names.insert(g.name).second, where + ": duplicate group name");
    check(g.count >= 1, where + ": count must be >= 1");
    check(std::isfinite(g.capacitance_f) && g.capacitance_f > 0.0,
          where + ": capacitance must be finite and > 0");
    check(g.max_off_s > 0.0, where + ": max_off must be > 0");
    check(g.max_reboots >= 1, where + ": reboots must be >= 1");
    check(g.max_futile >= 0, where + ": max_futile must be >= 0");
    check(g.agenda.jobs >= 1, where + ": jobs must be >= 1");
    check(g.agenda.period_s > 0.0, where + ": agenda period must be > 0");
    check(g.agenda.deadline_s > 0.0, where + ": deadline must be > 0");
    runtime_uses_compressed_model(g.agenda.runtime);  // throws on unknown key
    if (!g.sched_spec.empty()) {
      check(runtime_is_adaptive(g.agenda.runtime),
            where + ": sched= only applies to the adaptive runtime");
      sched::parse_adaptive_spec(g.sched_spec);  // throws on malformed spec
    }
  }
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
struct GroupTemplate {
  std::shared_ptr<const ace::CompiledModel> cm_primary;
  std::shared_ptr<const ace::CompiledModel> cm_dense;  // adaptive only
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
    }
  }

  w.device_group.reserve(static_cast<std::size_t>(w.n));
  for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
    for (int k = 0; k < cfg.groups[gi].count; ++k) w.device_group.push_back(gi);
  }
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

  const double offset =
      cfg.offset_spread_s * static_cast<double>(d) / static_cast<double>(w.n);
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
    // "adaptive", deadline selection for "adaptive-deadline").
    fd->policy = make_policy(g.agenda.runtime);
    if (force_admit_all) {
      if (auto* ap = sched::as_adaptive(fd->policy.get());
          ap != nullptr && ap->spec().admit == sched::Admission::kBudget) {
        sched::AdaptiveSpec aspec = ap->spec();
        aspec.admit = sched::Admission::kAll;
        fd->policy = sched::make_adaptive_policy(std::move(aspec));
      }
    }
  }
  const double worst_ck = sched::provision_deployment(
      *fd->policy, fd->device.cost(), *fd->cm_primary, fd->cm_dense.get(),
      fd->supply.burst_energy());
  fd->opts.max_reboots = g.max_reboots;
  fd->opts.max_futile_boots = g.max_futile;
  fd->opts.flex_v_warn = power::warn_voltage_for(fd->supply.config(), worst_ck + 5e-6, 3.0);
  fd->opts.profile = profile;  // JobQueue copies opts, so wire before emplace
  if (trace_capacity > 0) fd->trace.set_capacity(static_cast<std::size_t>(trace_capacity));
  fd->opts.trace = &fd->trace;  // counts-only unless the capacity above was set
  fd->supply.set_trace(&fd->trace);
  fd->queue.emplace(fd->device, *fd->policy, *fd->cm_primary, fd->opts, g.agenda, &fd->inputs);
  return fd;
}

// Reduces a finished device to its result record: fleet coordinates, the
// job records, and the per-device verdict buckets every aggregation path
// shares. The v5 "dnf" bucket excludes livelocked runs (they get their
// own counter); v4 folded them together.
FleetDeviceResult distill(const FleetWorld& w, const FleetConfig& cfg, int d,
                          const FleetDevice& fd) {
  const FleetGroup& g = cfg.groups[w.device_group[static_cast<std::size_t>(d)]];
  FleetDeviceResult res;
  res.device = d;
  res.group = g.name;
  res.offset_s = fd.source.offset();
  res.task = models::task_name(g.task);
  res.runtime = g.agenda.runtime;
  res.capacitance_f = g.capacitance_f;
  res.jobs = fd.queue->records();
  res.steps = fd.queue->steps();
  for (int k = 0; k < obs::kKindCount; ++k) res.event_counts[k] = fd.trace.counts()[k];
  if (fd.trace.capacity() > 0) {
    res.trace = obs::TraceCapture{d,
                                  "device " + std::to_string(d) + " " + res.group + " " +
                                      res.task + "/" + res.runtime,
                                  fd.trace.snapshot(), fd.trace.dropped(), fd.trace.total()};
  }
  for (const auto& j : res.jobs) {
    ++res.jobs_total;
    res.reboots += j.reboots;
    res.tier_switches += j.tier_switches;
    res.energy_j += j.energy_j;
    if (j.skipped_infeasible) {
      // An admission-refused release never ran: its verdict is its own
      // bucket, not a DNF.
      ++res.jobs_skipped;
      res.energy_reclaimed_j += j.energy_reclaimed_j;
    } else {
      switch (j.outcome) {
        case flex::Outcome::kCompleted:
          ++res.jobs_completed;
          break;
        case flex::Outcome::kDidNotFinish:
          if (j.livelock) {
            ++res.jobs_livelock;
          } else {
            ++res.jobs_dnf;
          }
          break;
        case flex::Outcome::kStarved:
          ++res.jobs_starved;
          break;
      }
    }
    if (j.met_deadline) ++res.jobs_in_deadline;
  }
  return res;
}

// The per-device scalar row the aggregation sink keeps: everything the
// report needs, nothing per-job. ~100 bytes/device is what makes a
// 100k-device population's footprint reporting-side negligible.
struct DeviceRow {
  int device = 0;
  int jobs_total = 0, jobs_completed = 0, jobs_in_deadline = 0, jobs_skipped = 0;
  int jobs_dnf = 0, jobs_starved = 0, jobs_livelock = 0;
  long reboots = 0, tier_switches = 0, steps = 0;
  double energy_j = 0.0, energy_reclaimed_j = 0.0;
  // Per-kind lifecycle event totals — one more block of mergeable
  // integers riding the same row (summed into the metrics block).
  long events[obs::kKindCount] = {};
};

DeviceRow row_of(const FleetDeviceResult& d) {
  DeviceRow r;
  r.device = d.device;
  r.jobs_total = d.jobs_total;
  r.jobs_completed = d.jobs_completed;
  r.jobs_in_deadline = d.jobs_in_deadline;
  r.jobs_skipped = d.jobs_skipped;
  r.jobs_dnf = d.jobs_dnf;
  r.jobs_starved = d.jobs_starved;
  r.jobs_livelock = d.jobs_livelock;
  r.reboots = d.reboots;
  r.tier_switches = d.tier_switches;
  r.steps = d.steps;
  r.energy_j = d.energy_j;
  r.energy_reclaimed_j = d.energy_reclaimed_j;
  for (int k = 0; k < obs::kKindCount; ++k) r.events[k] = d.event_counts[k];
  return r;
}

// Built-in aggregation sink: per-device scalar rows plus the streaming
// latency/staleness sketches over completed jobs. Order-independent by
// construction — rows sort by id at finalize, sketch merges are bin-wise
// integer adds — so every execution path lands on the same bytes.
class AggregateSink final : public FleetSink {
 public:
  std::vector<DeviceRow> rows;
  QuantileSketch latency{kSketchRelErr};
  QuantileSketch staleness{kSketchRelErr};
  // Retained event rings of trace_devices selections, in record order
  // until finalize sorts them by id (order-independent like rows).
  std::vector<obs::TraceCapture> traces;

  void record(const FleetDeviceResult& d) override {
    rows.push_back(row_of(d));
    for (const auto& j : d.jobs) {
      if (!j.skipped_infeasible && j.outcome == flex::Outcome::kCompleted) {
        latency.add(j.latency_s);
        staleness.add(j.staleness_s);
      }
    }
    if (d.trace) traces.push_back(*d.trace);
  }
  void merge(const FleetSink& other) override {
    const auto* o = dynamic_cast<const AggregateSink*>(&other);
    check(o != nullptr, "FleetSink::merge: mismatched sink types");
    rows.insert(rows.end(), o->rows.begin(), o->rows.end());
    latency.merge(o->latency);
    staleness.merge(o->staleness);
    traces.insert(traces.end(), o->traces.begin(), o->traces.end());
  }
  void finalize() override {
    std::sort(rows.begin(), rows.end(),
              [](const DeviceRow& a, const DeviceRow& b) { return a.device < b.device; });
    std::sort(traces.begin(), traces.end(),
              [](const obs::TraceCapture& a, const obs::TraceCapture& b) {
                return a.id < b.id;
              });
  }
};

// Full per-device retention (detail=full): the records behind the
// per_device JSON block. Not attached under detail=aggregate, which is
// how huge populations avoid materializing 10^5 job arrays.
class DetailSink final : public FleetSink {
 public:
  std::vector<FleetDeviceResult> devices;

  void record(const FleetDeviceResult& d) override { devices.push_back(d); }
  void merge(const FleetSink& other) override {
    const auto* o = dynamic_cast<const DetailSink*>(&other);
    check(o != nullptr, "FleetSink::merge: mismatched sink types");
    devices.insert(devices.end(), o->devices.begin(), o->devices.end());
  }
  void finalize() override {
    std::sort(devices.begin(), devices.end(),
              [](const FleetDeviceResult& a, const FleetDeviceResult& b) {
                return a.device < b.device;
              });
  }
};

// The ONE aggregation path every mode funnels through — in-process runs
// and shard merges alike. Rows arrive sorted by device id; integer
// counters and double sums accumulate in that order, percentiles come
// from the sketches. This shared funnel is why `--jobs 8`, `--shards 4`
// and a serial run cannot disagree on a single byte.
FleetReport finalize_report(const FleetConfig& cfg, AggregateSink& agg,
                            DetailSink* detail) {
  FleetReport r;
  r.config = cfg;
  r.sketch_rel_err = kSketchRelErr;
  // Metrics: rows arrive sorted by id and the registry's cells are plain
  // integer sums/maxes, so this block lands on the same bytes on every
  // execution path, exactly like the counters below it.
  long* ev_cells[obs::kKindCount];
  for (int k = 0; k < obs::kKindCount; ++k) {
    ev_cells[k] = r.metrics.counter(std::string("event.") +
                                    obs::event_name(static_cast<obs::EventKind>(k)));
  }
  long* trace_dropped = r.metrics.counter("trace.dropped_events");
  long* max_reboots = r.metrics.gauge("fleet.max_device_reboots");
  for (const DeviceRow& row : agg.rows) {
    for (int k = 0; k < obs::kKindCount; ++k) *ev_cells[k] += row.events[k];
    if (row.reboots > *max_reboots) *max_reboots = row.reboots;
    r.total_jobs += row.jobs_total;
    r.jobs_completed += row.jobs_completed;
    r.jobs_in_deadline += row.jobs_in_deadline;
    r.jobs_skipped += row.jobs_skipped;
    r.jobs_dnf += row.jobs_dnf;
    r.jobs_starved += row.jobs_starved;
    r.jobs_livelock += row.jobs_livelock;
    r.energy_reclaimed_j += row.energy_reclaimed_j;
    r.total_reboots += row.reboots;
    r.total_tier_switches += row.tier_switches;
    r.total_steps += row.steps;
    r.total_energy_j += row.energy_j;
  }
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
  for (const obs::TraceCapture& cap : agg.traces) *trace_dropped += cap.dropped;
  r.traces = std::move(agg.traces);
  if (detail != nullptr) r.devices = std::move(detail->devices);
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

// Drives devices [begin, end) to completion and feeds each result to the
// sinks. Devices are independent, so one loop serves every job count:
// workers claim device ids (util/parallel.h), build the device, drain its
// agenda and deliver the result. Each worker owns one slab slot: a
// finished device donates its SRAM/FRAM word buffers to it and the
// worker's next device is built from them, so the two big per-device
// arrays are allocated once per worker, not once per device. (Groups can
// differ in FRAM size; the adopting region resizes, which still reuses
// capacity when the next group's image is no larger.)
void run_range(const FleetWorld& w, const FleetConfig& cfg, int begin, int end,
               const FleetRunOptions& opts, const std::vector<FleetSink*>& sinks) {
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
}

flex::Outcome parse_outcome(const std::string& name) {
  if (name == "completed") return flex::Outcome::kCompleted;
  if (name == "dnf") return flex::Outcome::kDidNotFinish;
  if (name == "starved") return flex::Outcome::kStarved;
  fail("fleet shard: unknown outcome \"" + name + "\"");
}

double shard_num(const std::string& field, const std::string& where) {
  const auto v = parse_double(field);
  check(v.has_value(), where + ": bad number \"" + field + "\"");
  return *v;
}

// One parsed shard partial (schema ehdnn-fleet-shard-v2).
struct ShardPartial {
  int shard = 0;
  int shards = 0;
  int begin = 0;
  int end = 0;
  std::string config_text;  // the echoed config, verbatim
  AggregateSink agg;
  DetailSink detail;
  bool has_detail = false;
};

ShardPartial parse_shard_partial(std::istream& is, const std::string& where) {
  ShardPartial p;
  std::string line;
  check(static_cast<bool>(std::getline(is, line)) && line == "ehdnn-fleet-shard-v2",
        where + ": not a fleet shard partial (bad magic; v1 partials predate "
                "event tracing — regenerate with this build)");
  check(static_cast<bool>(std::getline(is, line)), where + ": truncated header");
  {
    std::istringstream hs(line);
    std::string tag;
    hs >> tag >> p.shard >> p.shards >> p.begin >> p.end;
    check(tag == "range" && !hs.fail(), where + ": bad range line \"" + line + "\"");
  }
  check(static_cast<bool>(std::getline(is, line)) && line == "config-begin",
        where + ": missing config echo");
  while (std::getline(is, line) && line != "config-end") p.config_text += line + "\n";
  check(line == "config-end", where + ": unterminated config echo");

  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
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
      if (which == "latency") {
        p.agg.latency = QuantileSketch::deserialize(rest);
      } else if (which == "staleness") {
        p.agg.staleness = QuantileSketch::deserialize(rest);
      } else {
        fail(where + ": unknown sketch \"" + which + "\"");
      }
    } else if (tag == "row") {
      DeviceRow r;
      std::string energy, reclaimed;
      ls >> r.device >> r.jobs_total >> r.jobs_completed >> r.jobs_in_deadline >>
          r.jobs_skipped >> r.jobs_dnf >> r.jobs_starved >> r.jobs_livelock >> r.reboots >>
          r.tier_switches >> r.steps >> energy >> reclaimed;
      for (int k = 0; k < obs::kKindCount; ++k) ls >> r.events[k];
      check(!ls.fail(), where + ": bad row \"" + line + "\"");
      // A row's counters must be the ones distill() could have produced:
      // nothing negative, verdict buckets that partition the jobs, and no
      // more in-deadline jobs than jobs. A hand-edited partial otherwise
      // merges into a report whose rates exceed 1.
      bool negative = r.jobs_total < 0 || r.jobs_completed < 0 || r.jobs_in_deadline < 0 ||
                      r.jobs_skipped < 0 || r.jobs_dnf < 0 || r.jobs_starved < 0 ||
                      r.jobs_livelock < 0 || r.reboots < 0 || r.tier_switches < 0 ||
                      r.steps < 0;
      for (int k = 0; k < obs::kKindCount; ++k) negative = negative || r.events[k] < 0;
      check(!negative, where + ": negative count in row \"" + line + "\"");
      check(r.jobs_completed + r.jobs_dnf + r.jobs_starved + r.jobs_livelock +
                    r.jobs_skipped ==
                r.jobs_total,
            where + ": verdict buckets do not sum to jobs_total in row \"" + line + "\"");
      check(r.jobs_in_deadline <= r.jobs_total,
            where + ": in_deadline exceeds jobs_total in row \"" + line + "\"");
      r.energy_j = shard_num(energy, where);
      r.energy_reclaimed_j = shard_num(reclaimed, where);
      p.agg.rows.push_back(r);
    } else if (tag == "trace") {
      obs::TraceCapture cap;
      std::size_t n_events = 0;
      ls >> cap.id >> n_events >> cap.dropped >> cap.total;
      check(!ls.fail(), where + ": bad trace header \"" + line + "\"");
      std::getline(ls, cap.label);
      if (!cap.label.empty() && cap.label.front() == ' ') cap.label.erase(0, 1);
      cap.events.reserve(n_events);
      for (std::size_t i = 0; i < n_events; ++i) {
        check(static_cast<bool>(std::getline(is, line)), where + ": truncated trace");
        std::istringstream es(line);
        std::string etag, ts;
        int kind = 0;
        obs::Event e;
        es >> etag >> ts >> kind >> e.a >> e.b;
        check(etag == "ev" && !es.fail() && kind >= 0 && kind < obs::kKindCount,
              where + ": bad event line \"" + line + "\"");
        e.t_s = shard_num(ts, where);
        e.kind = static_cast<obs::EventKind>(kind);
        cap.events.push_back(e);
      }
      p.agg.traces.push_back(std::move(cap));
    } else if (tag == "job") {
      p.has_detail = true;
      int device = 0;
      sched::JobRecord j;
      std::string release, start, finish, latency, staleness, outcome, met, lock, skip,
          energy, reclaimed;
      ls >> device >> j.job >> release >> start >> finish >> latency >> staleness >>
          outcome >> met >> lock >> skip >> j.runtime >> j.reboots >> j.checkpoints >>
          j.progress_commits >> j.tier_switches >> energy >> reclaimed;
      check(!ls.fail(), where + ": bad job line \"" + line + "\"");
      j.release_s = shard_num(release, where);
      j.start_s = shard_num(start, where);
      j.finish_s = shard_num(finish, where);
      j.latency_s = shard_num(latency, where);
      j.staleness_s = shard_num(staleness, where);
      j.outcome = parse_outcome(outcome);
      j.met_deadline = met == "1";
      j.livelock = lock == "1";
      j.skipped_infeasible = skip == "1";
      j.energy_j = shard_num(energy, where);
      j.energy_reclaimed_j = shard_num(reclaimed, where);
      if (p.detail.devices.empty() || p.detail.devices.back().device != device) {
        FleetDeviceResult res;
        res.device = device;
        p.detail.devices.push_back(std::move(res));
      }
      p.detail.devices.back().jobs.push_back(std::move(j));
    } else {
      fail(where + ": unknown record \"" + tag + "\"");
    }
  }
  check(saw_end, where + ": truncated partial (no end marker)");
  return p;
}

}  // namespace

int FleetConfig::total_devices() const {
  int n = 0;
  for (const auto& g : groups) n += g.count;
  return n;
}

FleetConfig parse_fleet_config(std::istream& is) {
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

    std::map<std::string, std::string> kv;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::size_t eq = tokens[i].find('=');
      check(eq != std::string::npos && eq > 0,
            where + ": expected key=value, got \"" + tokens[i] + "\"");
      const std::string key = tokens[i].substr(0, eq);
      check(kv.find(key) == kv.end(), where + ": duplicate key \"" + key + "\"");
      kv[key] = tokens[i].substr(eq + 1);
    }
    auto take = [&](const char* key) -> std::optional<std::string> {
      const auto it = kv.find(key);
      if (it == kv.end()) return std::nullopt;
      std::string v = it->second;
      kv.erase(it);
      return v;
    };
    // Real-valued keys must be finite: strtod accepts "inf" and "nan",
    // which no key means. The one exception is deadline=inf, the default
    // (no deadline), which write_fleet_config emits for such a group.
    auto take_num = [&](const char* key, bool inf_ok = false) -> std::optional<double> {
      const auto v = take(key);
      if (!v.has_value()) return std::nullopt;
      const auto d = parse_double(*v);
      constexpr double kInf = std::numeric_limits<double>::infinity();
      check(d.has_value() && (std::isfinite(*d) || (inf_ok && *d == kInf)),
            where + ": bad number for " + key + ": \"" + *v + "\"");
      return d;
    };
    // Integer-valued keys, in [0, hi]: range-checked before the cast, so
    // malformed entries throw as documented.
    constexpr long long kMaxCount = 1'000'000'000;
    constexpr long long kMaxRunLimit = 1'000'000'000'000'000;
    auto take_int = [&](const char* key, long long hi) -> std::optional<long long> {
      const auto v = take(key);
      if (!v.has_value()) return std::nullopt;
      const auto n = parse_int(*v, 0LL, hi);
      check(n.has_value(), where + ": " + key + " must be an integer in [0, " +
                               std::to_string(hi) + "], got \"" + *v + "\"");
      return n;
    };

    if (tokens[0] == "fleet") {
      check(!saw_fleet_line, where + ": duplicate fleet line");
      saw_fleet_line = true;
      if (const auto v = take("source")) cfg.source = *v;
      if (const auto v = take_num("spread")) cfg.offset_spread_s = *v;
      if (const auto v = take("seed")) {
        const auto seed =
            parse_int(*v, std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max());
        check(seed.has_value(), where + ": bad seed \"" + *v + "\"");
        cfg.seed = *seed;
      }
      if (const auto v = take("detail")) {
        if (*v == "full") {
          cfg.per_device_detail = true;
        } else if (*v == "aggregate") {
          cfg.per_device_detail = false;
        } else {
          fail(where + ": detail must be \"full\" or \"aggregate\", got \"" + *v + "\"");
        }
      }
    } else if (tokens[0] == "group") {
      FleetGroup g;
      g.name = "group" + std::to_string(cfg.groups.size());
      if (const auto v = take("name")) g.name = *v;
      if (const auto v = take_int("count", kMaxCount)) g.count = static_cast<int>(*v);
      if (const auto v = take("task")) g.task = models::parse_task(*v);
      if (const auto v = take("runtime")) g.agenda.runtime = *v;
      if (const auto v = take_num("cap")) g.capacitance_f = *v;
      if (const auto v = take_num("max_off")) g.max_off_s = *v;
      if (const auto v = take_int("reboots", kMaxRunLimit)) g.max_reboots = *v;
      if (const auto v = take_int("max_futile", kMaxRunLimit)) g.max_futile = *v;
      if (const auto v = take_int("jobs", kMaxCount)) g.agenda.jobs = static_cast<int>(*v);
      if (const auto v = take_num("period")) g.agenda.period_s = *v;
      if (const auto v = take_num("deadline", /*inf_ok=*/true)) g.agenda.deadline_s = *v;
      if (const auto v = take("sched")) g.sched_spec = *v;
      if (const auto v = take_int("fram", 1'000'000'000'000)) {
        g.fram_words = static_cast<std::size_t>(*v);
      }
      cfg.groups.push_back(std::move(g));
    } else {
      fail(where + ": expected \"fleet\" or \"group\", got \"" + tokens[0] + "\"");
    }
    check(kv.empty(),
          where + ": unknown key \"" + (kv.empty() ? "" : kv.begin()->first) + "\"");
  }
  validate(cfg);
  return cfg;
}

FleetConfig parse_fleet_config_file(const std::string& path) {
  std::ifstream f(path);
  check(f.good(), "fleet config: cannot read " + path);
  return parse_fleet_config(f);
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
    check(id >= 0 && id < n,
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

  AggregateSink agg;
  DetailSink detail;
  std::vector<FleetSink*> sinks = sinks_;
  sinks.push_back(&agg);
  if (cfg_.per_device_detail) sinks.push_back(&detail);

  run_range(w, cfg_, 0, w.n, ropts, sinks);
  for (FleetSink* s : sinks) s->finalize();

  FleetReport r = finalize_report(cfg_, agg, cfg_.per_device_detail ? &detail : nullptr);
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
  const int begin = static_cast<int>(static_cast<long long>(w.n) * shard / shards);
  const int end = static_cast<int>(static_cast<long long>(w.n) * (shard + 1) / shards);

  AggregateSink agg;
  DetailSink detail;
  std::vector<FleetSink*> sinks = sinks_;
  sinks.push_back(&agg);
  if (cfg_.per_device_detail) sinks.push_back(&detail);

  run_range(w, cfg_, begin, end, ropts, sinks);
  for (FleetSink* s : sinks) s->finalize();

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
    os << "row " << r.device << " " << r.jobs_total << " " << r.jobs_completed << " "
       << r.jobs_in_deadline << " " << r.jobs_skipped << " " << r.jobs_dnf << " "
       << r.jobs_starved << " " << r.jobs_livelock << " " << r.reboots << " "
       << r.tier_switches << " " << r.steps << " " << fmt_g17(r.energy_j) << " "
       << fmt_g17(r.energy_reclaimed_j);
    // v2: the per-kind event totals ride the row as one more mergeable
    // integer block.
    for (int k = 0; k < obs::kKindCount; ++k) os << " " << r.events[k];
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
  if (cfg_.per_device_detail) {
    for (const FleetDeviceResult& d : detail.devices) {
      for (const sched::JobRecord& j : d.jobs) {
        os << "job " << d.device << " " << j.job << " " << fmt_g17(j.release_s) << " "
           << fmt_g17(j.start_s) << " " << fmt_g17(j.finish_s) << " " << fmt_g17(j.latency_s)
           << " " << fmt_g17(j.staleness_s) << " " << flex::outcome_name(j.outcome) << " "
           << (j.met_deadline ? 1 : 0) << " " << (j.livelock ? 1 : 0) << " "
           << (j.skipped_infeasible ? 1 : 0) << " " << j.runtime << " " << j.reboots << " "
           << j.checkpoints << " " << j.progress_commits << " " << j.tier_switches << " "
           << fmt_g17(j.energy_j) << " " << fmt_g17(j.energy_reclaimed_j) << "\n";
      }
    }
  }
  os << "end\n";
}

FleetReport merge_fleet_shards(const std::vector<std::string>& paths) {
  check(!paths.empty(), "merge_fleet_shards: need at least one partial");
  std::vector<ShardPartial> parts;
  parts.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream f(path);
    check(f.good(), "merge_fleet_shards: cannot read " + path);
    parts.push_back(parse_shard_partial(f, path));
  }
  const int shards = parts.front().shards;
  check(static_cast<std::size_t>(shards) == parts.size(),
        "merge_fleet_shards: expected " + std::to_string(shards) + " partials, got " +
            std::to_string(parts.size()));
  std::sort(parts.begin(), parts.end(),
            [](const ShardPartial& a, const ShardPartial& b) { return a.shard < b.shard; });

  FleetConfig cfg;
  {
    std::istringstream cs(parts.front().config_text);
    cfg = parse_fleet_config(cs);
  }
  const int n = cfg.total_devices();
  AggregateSink agg;
  DetailSink detail;
  for (int i = 0; i < shards; ++i) {
    const ShardPartial& p = parts[static_cast<std::size_t>(i)];
    check(p.shard == i, "merge_fleet_shards: missing or duplicate shard " + std::to_string(i));
    check(p.shards == shards, "merge_fleet_shards: inconsistent shard counts");
    check(p.config_text == parts.front().config_text,
          "merge_fleet_shards: partials ran different configs");
    const int begin = static_cast<int>(static_cast<long long>(n) * i / shards);
    const int end = static_cast<int>(static_cast<long long>(n) * (i + 1) / shards);
    check(p.begin == begin && p.end == end,
          "merge_fleet_shards: shard " + std::to_string(i) + " covers the wrong range");
    check(static_cast<int>(p.agg.rows.size()) == end - begin,
          "merge_fleet_shards: shard " + std::to_string(i) + " is missing device rows");
    agg.merge(p.agg);
    if (cfg.per_device_detail) detail.merge(p.detail);
  }
  agg.finalize();
  detail.finalize();

  if (cfg.per_device_detail) {
    // Job lines carry only what rows cannot reconstruct; refill each
    // device's coordinates and verdict buckets from the config and its
    // records, exactly as distill() does in-process.
    std::map<int, std::vector<sched::JobRecord>> jobs_by_device;
    for (auto& d : detail.devices) jobs_by_device[d.device] = std::move(d.jobs);
    detail.devices.clear();
    std::vector<std::size_t> device_group;
    device_group.reserve(static_cast<std::size_t>(n));
    for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
      for (int k = 0; k < cfg.groups[gi].count; ++k) device_group.push_back(gi);
    }
    for (const DeviceRow& row : agg.rows) {
      const FleetGroup& g = cfg.groups[device_group[static_cast<std::size_t>(row.device)]];
      FleetDeviceResult res;
      res.device = row.device;
      res.group = g.name;
      res.offset_s =
          cfg.offset_spread_s * static_cast<double>(row.device) / static_cast<double>(n);
      res.task = models::task_name(g.task);
      res.runtime = g.agenda.runtime;
      res.capacitance_f = g.capacitance_f;
      const auto it = jobs_by_device.find(row.device);
      check(it != jobs_by_device.end(),
            "merge_fleet_shards: no job records for device " + std::to_string(row.device));
      res.jobs = std::move(it->second);
      res.jobs_total = row.jobs_total;
      res.jobs_completed = row.jobs_completed;
      res.jobs_in_deadline = row.jobs_in_deadline;
      res.jobs_skipped = row.jobs_skipped;
      res.jobs_dnf = row.jobs_dnf;
      res.jobs_starved = row.jobs_starved;
      res.jobs_livelock = row.jobs_livelock;
      res.reboots = row.reboots;
      res.tier_switches = row.tier_switches;
      res.steps = row.steps;
      res.energy_j = row.energy_j;
      res.energy_reclaimed_j = row.energy_reclaimed_j;
      detail.devices.push_back(std::move(res));
    }
  }
  return finalize_report(cfg, agg, cfg.per_device_detail ? &detail : nullptr);
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
