// The zoo-continuous workload: one continuous-power inference of each of
// {mnist, har, okg} x {base, ace, sonic, tails, tile, flex}. The untraced
// main call is sim::run_matrix; the traced replica rebuilds every cell
// with the recipe run_matrix uses and times each
// flex::IntermittentExecutor::step(), reading the rail deltas off
// dev::Device::trace().
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "models/zoo.h"
#include "power/continuous.h"
#include "sched/adaptive.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ehdnn;

const std::vector<std::string> kRuntimes = {"base", "ace", "sonic", "tails", "tile", "flex"};
const std::vector<models::Task> kTasks = {models::Task::kMnist, models::Task::kHar,
                                          models::Task::kOkg};
const std::vector<std::string> kTaskKeys = {"mnist", "har", "okg"};  // models::parse_task

LayerGroup layer_group(quant::QKind k) {
  switch (k) {
    case quant::QKind::kConv2D:
    case quant::QKind::kConv1D: return LayerGroup::kConv;
    case quant::QKind::kBcmDense: return LayerGroup::kBcm;
    case quant::QKind::kDense: return LayerGroup::kFc;
    default: return LayerGroup::kOther;
  }
}

// Per-task models and inputs, seeded exactly like sim::run_matrix.
struct TaskModels {
  std::map<bool, quant::QuantModel> qms;  // keyed by `compressed`
  std::map<bool, std::vector<fx::q15_t>> inputs;
};

std::vector<TaskModels> build_models(std::uint64_t seed) {
  std::vector<TaskModels> out(kTasks.size());
  for (std::size_t ti = 0; ti < kTasks.size(); ++ti) {
    for (const bool compressed : {false, true}) {
      Rng rng(seed + static_cast<std::uint64_t>(kTasks[ti]));
      auto& qm = out[ti].qms[compressed];
      qm = models::make_deployed_qmodel(kTasks[ti], compressed, rng);
      std::vector<fx::q15_t> input(qm.layers.front().in_size());
      for (auto& v : input) v = static_cast<fx::q15_t>(rng.next_u64());
      out[ti].inputs[compressed] = std::move(input);
    }
  }
  return out;
}

// The fields of a sim::ScenarioCell both paths produce.
struct CellRecord {
  flex::Outcome outcome = flex::Outcome::kDidNotFinish;
  bool livelock = false;
  double total_s = 0.0, energy_j = 0.0, checkpoint_energy_j = 0.0;
  long reboots = 0, checkpoints = 0, progress_commits = 0, units_executed = 0, units_total = 0;
  long events[obs::kKindCount] = {};

  bool same_as(const CellRecord& o) const {
    return outcome == o.outcome && livelock == o.livelock && same_bits(total_s, o.total_s) &&
           same_bits(energy_j, o.energy_j) &&
           same_bits(checkpoint_energy_j, o.checkpoint_energy_j) &&
           reboots == o.reboots && checkpoints == o.checkpoints &&
           progress_commits == o.progress_commits && units_executed == o.units_executed &&
           units_total == o.units_total && std::memcmp(events, o.events, sizeof events) == 0;
  }
};

CellRecord record_of(const sim::ScenarioCell& c) {
  CellRecord r;
  r.outcome = c.outcome;
  r.livelock = c.livelock;
  r.total_s = c.total_s;
  r.energy_j = c.energy_j;
  r.checkpoint_energy_j = c.checkpoint_energy_j;
  r.reboots = c.reboots;
  r.checkpoints = c.checkpoints;
  r.progress_commits = c.progress_commits;
  r.units_executed = c.units_executed;
  r.units_total = c.units_total;
  std::memcpy(r.events, c.event_counts, sizeof r.events);
  return r;
}

class ZooWorkload final : public Workload {
 public:
  explicit ZooWorkload(std::uint64_t seed) : seed_(seed) { scenario_.name = "continuous"; }

  // Model build, quantization and one image compile per cell: the calls
  // run_matrix makes before the first slice.
  double setup_once() override {
    const auto t0 = Clock::now();
    const std::vector<TaskModels> models = build_models(seed_);
    for (std::size_t ti = 0; ti < kTasks.size(); ++ti) {
      for (const std::string& rt : kRuntimes) {
        const bool compressed = sim::runtime_uses_compressed_model(rt);
        dev::Device dev(models::deployment_device_config(compressed));
        (void)ace::compile(models[ti].qms.at(compressed), dev);
      }
    }
    return seconds_between(t0, Clock::now());
  }

  MainPass run_main(Checks& checks) override {
    sim::SweepOptions opts;
    opts.seed = seed_;
    opts.jobs = 1;
    const auto t0 = Clock::now();
    const sim::ScenarioMatrix m = sim::run_matrix(kRuntimes, kTasks, {scenario_}, opts);
    MainPass p;
    p.wall_s = seconds_between(t0, Clock::now());

    last_main_.clear();
    std::ostringstream sig;
    long reboots = 0;
    bool energies_ok = true;
    for (const sim::ScenarioCell& c : m.cells) {
      last_main_.push_back(record_of(c));
      ++p.sim.jobs;
      p.sim.energy_j += c.energy_j;
      reboots += c.reboots;
      energies_ok = energies_ok && std::isfinite(c.energy_j) && c.energy_j >= 0.0;
      if (c.completed()) {
        // No deadline: a completed cell is in deadline.
        ++p.sim.completed;
        ++p.sim.in_deadline;
        p.sim.latencies_s.push_back(c.total_s);
      } else {
        ++p.sim.unexpected;
      }
      sig << hexbits(c.total_s) << hexbits(c.energy_j) << c.units_executed << ",";
    }
    std::sort(p.sim.latencies_s.begin(), p.sim.latencies_s.end());
    p.sim.signature = "cells=" + std::to_string(m.cells.size()) + " " + sig.str();

    const long recovery = counter_of(m.metrics, "event.recovery");
    checks.expect(m.cells.size() == kTasks.size() * kRuntimes.size(),
                  "zoo-continuous: cell count");
    checks.expect(p.sim.completed == p.sim.jobs, "zoo-continuous: a cell did not complete");
    checks.expect(recovery == reboots, "zoo-continuous: event.recovery != reboots");
    checks.expect(counter_of(m.metrics, "event.brown_out") == recovery + (p.sim.jobs - p.sim.completed),
                  "zoo-continuous: event.brown_out != event.recovery + runs ended by a brown-out");
    checks.expect(counter_of(m.metrics, "event.boot") == recovery + p.sim.jobs,
                  "zoo-continuous: event.boot != event.recovery + runs");
    checks.expect(energies_ok, "zoo-continuous: an energy is negative or not finite");
    return p;
  }

  frozen::Pass run_frozen() override { return frozen::zoo_pass(kRuntimes, kTaskKeys, seed_); }

  TracedPass run_traced(Checks& checks) override {
    TracedPass tp;
    tp.spans.clear();
    LayerCounts& c = tp.counts;
    std::vector<CellRecord> cells;
    std::map<std::pair<std::size_t, std::string>, std::vector<fx::q15_t>> outputs;
    bool step_shape_ok = true;
    long before[obs::kKindCount];
    // Models are built inside the pass, as run_matrix builds its own, so
    // traced and untraced walls cover the same work.
    const auto pass0 = Clock::now();
    const std::vector<TaskModels> models = build_models(seed_);
    for (std::size_t ti = 0; ti < kTasks.size(); ++ti) {
      for (std::size_t ri = 0; ri < kRuntimes.size(); ++ri) {
        const std::size_t i = ti * kRuntimes.size() + ri;
        const std::string& rt = kRuntimes[ri];
        const bool compressed = sim::runtime_uses_compressed_model(rt);
        const auto c0 = Clock::now();
        const std::int32_t cell_span =
            tp.spans.add(SpanKind::kCell, c0, c0, -1, static_cast<int>(i), 0);

        dev::DeviceConfig dcfg = models::deployment_device_config(compressed);
        dcfg.scramble_seed = seed_ + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1);
        dev::Device dev(dcfg);
        obs::EventTrace trace;
        power::ContinuousPower cont;
        dev.attach_supply(&cont);
        const ace::CompiledModel cm = ace::compile(models[ti].qms.at(compressed), dev);
        auto policy = sim::make_policy(rt);
        sched::provision_deployment(*policy, dev.cost(), cm, nullptr,
                                    std::numeric_limits<double>::infinity());
        flex::RunOptions opts;
        opts.trace = &trace;
        opts.max_reboots = scenario_.max_reboots;
        opts.max_futile_boots = scenario_.max_futile;

        flex::IntermittentExecutor ex(*policy);
        ex.start(dev, cm, models[ti].inputs.at(compressed), opts);
        long step = 0;
        for (bool more = true; more; ++step) {
          std::memcpy(before, trace.counts(), sizeof before);
          const double cycles0 = dev.trace().total_cycles();
          const double energy0 = dev.trace().total_energy();
          const auto s0 = Clock::now();
          more = ex.step();
          const auto s1 = Clock::now();
          SliceEvents ev;
          const SpanKind k = classify_slice(before, trace.counts(), &ev);
          ++c.slices[static_cast<int>(k)];
          c.checkpoints += ev.checkpoints;
          if (k == SpanKind::kKernel && ev.browned_out) ++c.lost_kernel_slices;
          tp.spans.add(k, s0, s1, cell_span, static_cast<int>(i), 0);
          // Under continuous power slice 0 is the fresh boot and slice
          // l + 1 runs layer l (one layer per policy step); the boot is
          // booked to "other".
          const long n_layers = static_cast<long>(cm.model.layers.size());
          if (step > n_layers) step_shape_ok = false;
          const int g = static_cast<int>(
              step >= 1 && step <= n_layers
                  ? layer_group(cm.model.layers[static_cast<std::size_t>(step - 1)].kind)
                  : LayerGroup::kOther);
          c.layer_cycles[g] += dev.trace().total_cycles() - cycles0;
          c.layer_energy_j[g] += dev.trace().total_energy() - energy0;
        }
        const flex::RunStats& st = ex.stats();
        step_shape_ok = step_shape_ok && ex.finished() &&
                        step == static_cast<long>(cm.model.layers.size()) + 1;
        CellRecord r;
        r.outcome = st.outcome;
        r.livelock = st.livelock;
        r.total_s = st.total_seconds();
        r.energy_j = st.energy_j;
        r.checkpoint_energy_j = st.checkpoint_energy_j;
        r.reboots = st.reboots;
        r.checkpoints = st.checkpoints;
        r.progress_commits = st.progress_commits;
        r.units_executed = st.units_executed;
        r.units_total = st.units_total;
        std::memcpy(r.events, trace.counts(), sizeof r.events);
        cells.push_back(r);
        if (st.completed()) outputs[{ti, rt}] = st.output;

        for (int k = 0; k < obs::kKindCount; ++k) c.events[k] += trace.counts()[k];
        for (int rl = 0; rl < kRails; ++rl) {
          c.rail_energy_j[rl] += dev.trace().energy(static_cast<dev::Rail>(rl));
        }
        c.fram_wr_cycles += dev.trace().cycles(dev::Rail::kFramWrite);
        ++c.jobs;
        c.reboots += st.reboots;
        tp.spans.close(cell_span, Clock::now());
      }
    }
    tp.wall_s = seconds_between(pass0, Clock::now());

    const std::string w = "zoo-continuous reconcile: ";
    bool cells_match = cells.size() == last_main_.size();
    double energy = 0.0;
    for (std::size_t i = 0; cells_match && i < cells.size(); ++i) {
      cells_match = cells[i].same_as(last_main_[i]);
      energy += last_main_[i].energy_j;
    }
    checks.expect(cells_match, w + "replica cells disagree with run_matrix");
    checks.expect(step_shape_ok, w + "a cell did not run one boot plus one slice per layer");
    double rails = 0.0, layers = 0.0;
    for (double e : c.rail_energy_j) rails += e;
    for (double e : c.layer_energy_j) layers += e;
    checks.expect(std::fabs(rails - energy) <= 1e-9 * energy,
                  w + "rail energies do not sum to the cells' energy");
    checks.expect(std::fabs(layers - energy) <= 1e-9 * energy,
                  w + "per-layer energies do not sum to the cells' energy");
    for (std::size_t ti = 0; ti < kTasks.size(); ++ti) {
      const auto ace = outputs.find({ti, "ace"});
      const auto flex = outputs.find({ti, "flex"});
      checks.expect(ace != outputs.end() && flex != outputs.end() && !ace->second.empty() &&
                        ace->second == flex->second,
                    std::string("zoo-continuous: FLEX output != ACE output on ") +
                        models::task_name(kTasks[ti]));
    }
    return tp;
  }

  // FLEX == ACE and the replica reconciliation, also in untraced runs.
  void verify_outputs(Checks& checks) override { (void)run_traced(checks); }

 private:
  std::uint64_t seed_;
  sim::ScenarioSpec scenario_;  // continuous bench power, default guards
  std::vector<CellRecord> last_main_;   // the most recent untraced pass
};

}  // namespace

std::unique_ptr<Workload> make_zoo_workload(std::uint64_t seed) {
  return std::make_unique<ZooWorkload>(seed);
}

}  // namespace perfbench
