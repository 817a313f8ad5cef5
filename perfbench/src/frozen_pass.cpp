// Built with the frozen sources and -Dehdnn=ehdnn_frozen (see
// CMakeLists.txt), so every ehdnn name below is the frozen copy's. The
// calls mirror the program passes in fleet.cpp and zoo.cpp.
#include "frozen_pass.h"

#include <chrono>
#include <sstream>

#include "models/zoo.h"
#include "sim/fleet.h"
#include "sim/scenario.h"

namespace perfbench::frozen {
namespace {

using namespace ehdnn;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keeps every device result, as the program pass's record sink does.
class KeepSink final : public sim::FleetSink {
 public:
  std::vector<sim::FleetDeviceResult> rows;
  void record(const sim::FleetDeviceResult& d) override { rows.push_back(d); }
  void merge(const sim::FleetSink&) override {}
  void finalize() override {}
};

}  // namespace

Pass fleet_pass(const std::string& config_text) {
  std::istringstream is(config_text);
  const sim::FleetConfig cfg = sim::parse_fleet_config(is);
  KeepSink sink;
  sim::FleetRunOptions opts;
  opts.jobs = 1;
  sim::FleetEngine engine(cfg);
  engine.add_sink(sink);
  const auto t0 = Clock::now();
  const sim::FleetReport r = engine.run(opts);
  return {since(t0), r.total_jobs};
}

Pass zoo_pass(const std::vector<std::string>& runtimes, const std::vector<std::string>& tasks,
              std::uint64_t seed) {
  std::vector<models::Task> ts;
  for (const std::string& t : tasks) ts.push_back(models::parse_task(t));
  sim::ScenarioSpec scenario;
  scenario.name = "continuous";
  sim::SweepOptions opts;
  opts.seed = seed;
  opts.jobs = 1;
  const auto t0 = Clock::now();
  const sim::ScenarioMatrix m = sim::run_matrix(runtimes, ts, {scenario}, opts);
  return {since(t0), static_cast<long>(m.cells.size())};
}

}  // namespace perfbench::frozen
