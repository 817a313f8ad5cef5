// The three fleet workloads: generated configs, the untraced main call
// (sim::FleetEngine::run with a recording sink), and the traced replica
// that rebuilds every device with the public recipe sim::FleetEngine uses
// and times each sched::JobQueue::step().
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "core/ace/compiled_model.h"
#include "models/zoo.h"
#include "power/capacitor.h"
#include "power/factory.h"
#include "power/monitor.h"
#include "sched/adaptive.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ehdnn;
using obs::EventKind;

// The workload configs. `seed` feeds the fleet's model weights, per-device
// job inputs and SRAM scramble seeds; everything else is fixed, so the
// modeled cost (data-independent by construction) repeats across seeds
// while the simulated bits do not. Trace paths resolve from the repo root,
// which is the command's working directory.
//
// The populations are small enough that one pass takes about a second or
// less: the untraced runs pair every pass with a pass of the frozen copy,
// and short pairs see the same host load on both sides.
std::string fleet_config_text(const std::string& name, std::uint64_t seed) {
  const std::string head = " seed=" + std::to_string(seed) + " detail=aggregate\n";
  if (name == "flex-square") {
    // fleet_scale_smoke's population at 512 devices.
    return "fleet source=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5 spread=1.0" + head +
           "group name=flex count=512 task=mnist runtime=flex cap=10e-6 jobs=1\n";
  }
  if (name == "hetero-adaptive") {
    // configs/fleet_hetero.cfg with one device per group instead of 16.
    const std::string s = " sched=adaptive:sel=deadline,fc=periodic\n";
    return "fleet source=trace:path=traces/rf_office.csv spread=1.0" + head +
           "group name=office-mnist count=1 task=mnist runtime=adaptive cap=10e-6 jobs=2 "
           "period=0.25 deadline=0.2" + s +
           "group name=micro-cap count=1 task=mnist runtime=adaptive cap=0.05e-6 jobs=2 "
           "period=4 deadline=5 reboots=30000" + s +
           "group name=okg-keyword count=1 task=okg runtime=adaptive cap=10e-6 jobs=2 "
           "period=0.5 deadline=0.3" + s +
           "group name=har-wearable count=1 task=har runtime=adaptive cap=10e-6 jobs=2 "
           "period=0.2 deadline=0.1" + s;
  }
  if (name == "microcap-tile") {
    // configs/fleet_microcap.cfg as committed (four devices per group).
    const std::string g = " task=mnist cap=80e-9 jobs=1 period=4 max_futile=400 reboots=400000\n";
    return "fleet source=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5 spread=0.02" + head +
           "group name=tile count=4 runtime=tile" + g +
           "group name=adaptive count=4 runtime=adaptive" + g +
           "group name=sonic count=4 runtime=sonic" + g +
           "group name=flex count=4 runtime=flex" + g;
  }
  throw std::invalid_argument("unknown fleet workload \"" + name + "\"");
}

// The verdict each group is expected to reach. At 80 nF the sonic and
// flex groups livelock by design (configs/fleet_microcap.cfg documents
// it); every other job in these workloads completes.
bool expects_livelock(const std::string& workload, const std::string& group) {
  return workload == "microcap-tile" && (group == "sonic" || group == "flex");
}

// One device's result as both paths see it: what sim::FleetEngine hands a
// FleetSink, and what the replica reads off its own device.
struct DeviceRecord {
  int device = 0;
  std::string group;
  long steps = 0;
  long reboots = 0;
  double energy_j = 0.0;
  long events[obs::kKindCount] = {};
  std::vector<sched::JobRecord> jobs;
};

bool same_job(const sched::JobRecord& a, const sched::JobRecord& b) {
  return a.job == b.job && a.outcome == b.outcome && a.met_deadline == b.met_deadline &&
         a.livelock == b.livelock && a.skipped_infeasible == b.skipped_infeasible &&
         a.runtime == b.runtime && a.reboots == b.reboots && a.checkpoints == b.checkpoints &&
         a.progress_commits == b.progress_commits && a.tier_switches == b.tier_switches &&
         same_bits(a.start_s, b.start_s) && same_bits(a.finish_s, b.finish_s) &&
         same_bits(a.energy_j, b.energy_j);
}

// First difference between two records, empty when they agree exactly.
std::string record_diff(const DeviceRecord& a, const DeviceRecord& b) {
  const std::string who = "device " + std::to_string(a.device) + ": ";
  if (a.device != b.device) return who + "device id " + std::to_string(b.device);
  if (a.steps != b.steps) return who + "steps " + std::to_string(a.steps) + " vs " + std::to_string(b.steps);
  if (a.reboots != b.reboots) return who + "reboots differ";
  if (!same_bits(a.energy_j, b.energy_j)) return who + "energy differs";
  for (int k = 0; k < obs::kKindCount; ++k) {
    if (a.events[k] != b.events[k]) {
      return who + "event." + obs::event_name(static_cast<EventKind>(k)) + " differs";
    }
  }
  if (a.jobs.size() != b.jobs.size()) return who + "job count differs";
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    if (!same_job(a.jobs[j], b.jobs[j])) return who + "job " + std::to_string(j) + " differs";
  }
  return "";
}

// Records every device the engine retires. The engine serializes
// record() calls; order is unspecified, so finalize() sorts by id.
class RecordSink final : public sim::FleetSink {
 public:
  std::vector<DeviceRecord> rows;

  void record(const sim::FleetDeviceResult& d) override {
    DeviceRecord r;
    r.device = d.device;
    r.group = d.group;
    r.steps = d.steps;
    r.reboots = d.reboots;
    r.energy_j = d.energy_j;
    std::copy(std::begin(d.event_counts), std::end(d.event_counts), r.events);
    r.jobs = d.jobs;
    rows.push_back(std::move(r));
  }
  void merge(const sim::FleetSink&) override {
    throw std::logic_error("RecordSink: shard merges are not part of this benchmark");
  }
  void finalize() override {
    std::sort(rows.begin(), rows.end(),
              [](const DeviceRecord& a, const DeviceRecord& b) { return a.device < b.device; });
  }
};

// FNV-1a over the bits of every record: the pass's simulated fingerprint.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  template <typename T>
  void add(const T& v) {
    add(&v, sizeof v);
  }
};

SimOutcome outcome_of(const std::string& workload, const std::vector<DeviceRecord>& rows) {
  SimOutcome o;
  Fnv fp;
  for (const DeviceRecord& r : rows) {
    fp.add(r.device);
    fp.add(r.steps);
    fp.add(r.reboots);
    fp.add(r.energy_j);
    fp.add(r.events, sizeof r.events);
    const bool livelock_expected = expects_livelock(workload, r.group);
    o.energy_j += r.energy_j;  // per-device sums in id order, like the report
    for (const sched::JobRecord& j : r.jobs) {
      ++o.jobs;
      const bool completed = !j.skipped_infeasible && j.outcome == flex::Outcome::kCompleted;
      if (completed) {
        ++o.completed;
        o.latencies_s.push_back(j.latency_s);
      }
      if (j.met_deadline) ++o.in_deadline;
      if (livelock_expected ? !j.livelock : !completed) ++o.unexpected;
      fp.add(j.start_s);
      fp.add(j.finish_s);
      fp.add(j.energy_j);
      fp.add(static_cast<int>(j.outcome));
      fp.add(j.met_deadline);
    }
  }
  std::sort(o.latencies_s.begin(), o.latencies_s.end());
  std::ostringstream sig;
  sig << "jobs=" << o.jobs << " completed=" << o.completed << " in_deadline=" << o.in_deadline
      << " energy=" << hexbits(o.energy_j) << " fingerprint=" << std::hex << fp.h;
  o.signature = sig.str();
  return o;
}

// ---- the replica: sim::FleetEngine's public build recipe -------------------

// A group's compile-once image (the engine's GroupTemplate).
struct Template {
  std::shared_ptr<const ace::CompiledModel> primary;
  std::shared_ptr<const ace::CompiledModel> dense;  // adaptive only
  std::unique_ptr<dev::Device> image;
};

// Population-wide immutable state (the engine's FleetWorld). Building it
// is the workload's set-up: model build, quantization, image compile.
struct World {
  std::unique_ptr<power::HarvestSource> base_source;
  std::map<std::pair<int, bool>, quant::QuantModel> qms;
  std::vector<std::size_t> group_fram;
  std::vector<Template> tpl;
  std::vector<std::size_t> device_group;
  int n = 0;
};

void group_variants(const sim::FleetGroup& g, bool* need_compressed, bool* need_dense) {
  const bool adaptive = sim::runtime_is_adaptive(g.agenda.runtime);
  const bool compressed = sim::runtime_uses_compressed_model(g.agenda.runtime);
  *need_compressed = adaptive || compressed;
  *need_dense = adaptive || !compressed;
}

World build_world(const sim::FleetConfig& cfg) {
  World w;
  w.base_source = power::make_harvest_source(cfg.source);
  w.n = cfg.total_devices();
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
  w.group_fram.resize(cfg.groups.size());
  w.tpl.resize(cfg.groups.size());
  for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
    const sim::FleetGroup& g = cfg.groups[gi];
    const bool adaptive = sim::runtime_is_adaptive(g.agenda.runtime);
    const bool primary_compressed = sim::runtime_uses_compressed_model(g.agenda.runtime);
    if (g.fram_words != 0) {
      w.group_fram[gi] = g.fram_words;
    } else {
      bool need_c = false, need_d = false;
      group_variants(g, &need_c, &need_d);
      dev::Device scratch(models::deployment_device_config(/*compressed=*/false));
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
    Template& t = w.tpl[gi];
    dev::DeviceConfig tcfg;
    tcfg.fram_words = w.group_fram[gi];
    t.image = std::make_unique<dev::Device>(tcfg);
    t.primary = std::make_shared<const ace::CompiledModel>(
        ace::compile(w.qms.at({static_cast<int>(g.task), primary_compressed}), *t.image));
    if (adaptive) {
      t.dense = std::make_shared<const ace::CompiledModel>(
          ace::compile(w.qms.at({static_cast<int>(g.task), false}), *t.image,
                       /*co_resident=*/true));
    }
  }
  for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
    for (int k = 0; k < cfg.groups[gi].count; ++k) w.device_group.push_back(gi);
  }
  return w;
}

// One simulated device (the engine's FleetDevice). Pointer-stable: the
// supply, executor and queue point into it.
struct Device {
  power::TimeOffsetSource source;
  power::CapacitorSupply supply;
  dev::Device device;
  std::shared_ptr<const ace::CompiledModel> cm_primary, cm_dense;
  std::vector<std::vector<fx::q15_t>> inputs;
  std::unique_ptr<flex::RuntimePolicy> policy;
  obs::EventTrace trace;  // counts-only, like every engine device
  flex::RunOptions opts;
  std::optional<sched::JobQueue> queue;

  Device(const power::HarvestSource& base, double offset, const power::CapacitorConfig& ccfg,
         const dev::DeviceConfig& dcfg)
      : source(base, offset), supply(source, ccfg), device(dcfg) {
    device.attach_supply(&supply);
  }
};

std::unique_ptr<Device> make_device(const World& w, const sim::FleetConfig& cfg, int d) {
  const std::size_t gi = w.device_group[static_cast<std::size_t>(d)];
  const sim::FleetGroup& g = cfg.groups[gi];
  const bool adaptive = sim::runtime_is_adaptive(g.agenda.runtime);

  power::CapacitorConfig ccfg;
  ccfg.capacitance_f = g.capacitance_f;
  ccfg.max_off_s = g.max_off_s;
  const double offset =
      cfg.offset_spread_s * static_cast<double>(d) / static_cast<double>(w.n);
  dev::DeviceConfig dcfg;
  dcfg.fram_words = w.group_fram[gi];
  dcfg.scramble_seed = cfg.seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(d) + 1);

  auto fd = std::make_unique<Device>(*w.base_source, offset, ccfg, dcfg);
  const Template& t = w.tpl[gi];
  fd->device.fram().clone_from(t.image->fram());
  fd->device.sram().clone_from(t.image->sram());
  fd->cm_primary = t.primary;
  if (adaptive) fd->cm_dense = t.dense;

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
    fd->policy = sched::make_adaptive_policy(sched::parse_adaptive_spec(g.sched_spec));
  } else {
    fd->policy = sim::make_policy(g.agenda.runtime);
  }
  const double worst_ck = sched::provision_deployment(*fd->policy, fd->device.cost(),
                                                      *fd->cm_primary, fd->cm_dense.get(),
                                                      fd->supply.burst_energy());
  fd->opts.max_reboots = g.max_reboots;
  fd->opts.max_futile_boots = g.max_futile;
  fd->opts.flex_v_warn = power::warn_voltage_for(fd->supply.config(), worst_ck + 5e-6, 3.0);
  fd->opts.trace = &fd->trace;
  fd->supply.set_trace(&fd->trace);
  fd->queue.emplace(fd->device, *fd->policy, *fd->cm_primary, fd->opts, g.agenda, &fd->inputs);
  return fd;
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::string name, std::uint64_t seed)
      : name_(std::move(name)), text_(fleet_config_text(name_, seed)) {
    std::istringstream is(text_);
    cfg_ = sim::parse_fleet_config(is);
  }

  frozen::Pass run_frozen() override { return frozen::fleet_pass(text_); }

  double setup_once() override {
    const auto t0 = Clock::now();
    const World w = build_world(cfg_);
    return seconds_between(t0, Clock::now());
  }

  MainPass run_main(Checks& checks) override {
    RecordSink sink;
    sim::FleetRunOptions opts;
    opts.jobs = 1;
    sim::FleetEngine engine(cfg_);
    engine.add_sink(sink);
    const auto t0 = Clock::now();
    const sim::FleetReport r = engine.run(opts);
    MainPass p;
    p.wall_s = seconds_between(t0, Clock::now());
    check_report(r, sink.rows, checks);
    p.sim = outcome_of(name_, sink.rows);
    checks.expect(same_bits(p.sim.energy_j, r.total_energy_j),
                  name_ + ": sink energy != report total_energy_j");
    last_main_ = std::move(sink.rows);
    return p;
  }

  TracedPass run_traced(Checks& checks) override {
    TracedPass tp;
    tp.spans.clear();
    LayerCounts& c = tp.counts;
    long before[obs::kKindCount];
    // The world is built inside the pass, as FleetEngine::run builds its
    // own, so traced and untraced walls cover the same work.
    const auto pass0 = Clock::now();
    const World world = build_world(cfg_);
    std::vector<DeviceRecord> rows;
    rows.reserve(static_cast<std::size_t>(world.n));
    for (int d = 0; d < world.n; ++d) {
      const auto b0 = Clock::now();
      auto fd = make_device(world, cfg_, d);
      const auto b1 = Clock::now();
      const std::int32_t dev_span = tp.spans.add(SpanKind::kDevice, b0, b0, -1, d, -1);
      tp.spans.add(SpanKind::kBuild, b0, b1, dev_span, d, -1);
      ++c.builds;
      for (bool more = true; more;) {
        std::memcpy(before, fd->trace.counts(), sizeof before);
        const int job = static_cast<int>(fd->queue->records().size());
        const auto s0 = Clock::now();
        more = fd->queue->step();
        const auto s1 = Clock::now();
        SliceEvents ev;
        const SpanKind k = classify_slice(before, fd->trace.counts(), &ev);
        ++c.slices[static_cast<int>(k)];
        c.checkpoints += ev.checkpoints;
        if (k == SpanKind::kKernel && ev.browned_out) ++c.lost_kernel_slices;
        tp.spans.add(k, s0, s1, dev_span, d, job);
      }
      rows.push_back(record_of(world, d, *fd));
      const dev::EnergyTrace& et = fd->device.trace();
      for (int r = 0; r < kRails; ++r) c.rail_energy_j[r] += et.energy(static_cast<dev::Rail>(r));
      c.fram_wr_cycles += et.cycles(dev::Rail::kFramWrite);
      fd.reset();
      tp.spans.close(dev_span, Clock::now());
    }
    tp.wall_s = seconds_between(pass0, Clock::now());
    for (const DeviceRecord& r : rows) {
      for (int k = 0; k < obs::kKindCount; ++k) c.events[k] += r.events[k];
      c.jobs += static_cast<long>(r.jobs.size());
      c.reboots += r.reboots;
    }
    reconcile(rows, c, checks);
    return tp;
  }

 private:
  DeviceRecord record_of(const World& world, int d, const Device& fd) const {
    DeviceRecord r;
    r.device = d;
    r.group = cfg_.groups[world.device_group[static_cast<std::size_t>(d)]].name;
    r.steps = fd.queue->steps();
    std::copy(fd.trace.counts(), fd.trace.counts() + obs::kKindCount, r.events);
    r.jobs = fd.queue->records();
    for (const sched::JobRecord& j : r.jobs) {
      r.reboots += j.reboots;
      r.energy_j += j.energy_j;
    }
    return r;
  }

  // The report's own identities (the correctness gate of every pass).
  void check_report(const sim::FleetReport& r, const std::vector<DeviceRecord>& rows,
                    Checks& checks) const {
    const std::string w = name_ + ": ";
    checks.expect(r.jobs_completed + r.jobs_dnf + r.jobs_starved + r.jobs_livelock +
                          r.jobs_skipped == r.total_jobs,
                  w + "verdict buckets do not sum to total_jobs");
    const long brown_out = counter_of(r.metrics, "event.brown_out");
    const long recovery = counter_of(r.metrics, "event.recovery");
    const long boot = counter_of(r.metrics, "event.boot");
    // Every recovery is a reboot; every brown-out is followed by a
    // recovery unless it ended its run (livelock, DNF, starvation) — so
    // with every job completed this is brown_out == recovery == reboots.
    checks.expect(recovery == r.total_reboots, w + "event.recovery != total_reboots");
    checks.expect(brown_out == recovery + r.jobs_dnf + r.jobs_starved + r.jobs_livelock,
                  w + "event.brown_out != event.recovery + runs ended by a brown-out");
    const long runs = r.total_jobs - r.jobs_skipped;
    checks.expect(boot == recovery + runs, w + "event.boot != event.recovery + runs");
    bool energies_ok = std::isfinite(r.total_energy_j) && r.total_energy_j >= 0.0 &&
                       std::isfinite(r.energy_reclaimed_j) && r.energy_reclaimed_j >= 0.0;
    for (const DeviceRecord& d : rows) {
      energies_ok = energies_ok && std::isfinite(d.energy_j) && d.energy_j >= 0.0;
    }
    checks.expect(energies_ok, w + "an energy is negative or not finite");
    checks.expect(static_cast<int>(rows.size()) == cfg_.total_devices(),
                  w + "the sink did not see every device");
    long steps = 0;
    for (const DeviceRecord& d : rows) steps += d.steps;
    checks.expect(steps == r.total_steps, w + "sink steps != report total_steps");
  }

  // The traced replica against what the engine delivered to the sink.
  void reconcile(const std::vector<DeviceRecord>& rows, const LayerCounts& c,
                 Checks& checks) const {
    const std::string w = name_ + " reconcile: ";
    std::string diff;
    if (rows.size() != last_main_.size()) {
      diff = "device count differs";
    } else {
      for (std::size_t i = 0; i < rows.size() && diff.empty(); ++i) {
        diff = record_diff(last_main_[i], rows[i]);
      }
    }
    checks.expect(diff.empty(), w + "replica disagrees with FleetEngine::run (" + diff + ")");
    long steps = 0;
    double energy = 0.0;
    for (const DeviceRecord& d : last_main_) {
      steps += d.steps;
      energy += d.energy_j;
    }
    checks.expect(c.total_slices() == steps, w + "classified slices do not sum to total_steps");
    double rails = 0.0;
    for (double e : c.rail_energy_j) rails += e;
    checks.expect(std::fabs(rails - energy) <= 1e-9 * std::max(energy, 1e-12),
                  w + "rail energies do not sum to total_energy_j");
  }

  std::string name_;
  std::string text_;  // the config as generated, for the frozen copy
  sim::FleetConfig cfg_;
  std::vector<DeviceRecord> last_main_;  // the most recent untraced pass
};

}  // namespace

std::unique_ptr<Workload> make_fleet_workload(const std::string& name, std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(name, seed);
}

}  // namespace perfbench
