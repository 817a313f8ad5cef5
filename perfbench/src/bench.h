// Shared pieces of the perfbench runner: host timing, span log, the
// per-layer counters a traced pass fills, the correctness ledger, and the
// workload entry points (fleet.cpp, zoo.cpp).
//
// Two cost axes run through every number here. SIMULATED metrics are the
// modeled MSP430-class device (cycles, joules, verdicts) and repeat
// bit-for-bit for a fixed seed. HOST metrics are the wall-clock the
// simulator takes to produce them and are summarized as median/quartiles.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/energy_trace.h"
#include "frozen_pass.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Median and quartiles with Python's statistics.quantiles(n=4) default
// ("exclusive") method, so the figures printed here match the ones a
// reader recomputes from the per-run JSON values.
struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);

// Correctness ledger: every identity or reconciliation check lands here.
// A failed check is a failed operation and makes the command exit 1.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  long passed() const { return passed_; }
  long failed() const { return static_cast<long>(failures_.size()); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long passed_ = 0;
  std::vector<std::string> failures_;
};

// What a span covers. The first kPhaseCount kinds are the slice phases a
// traced fleet slice is attributed to, classified by the event-count
// deltas of the device's own counts-only obs::EventTrace in this priority
// order (first match wins); the rest are the enclosing spans.
enum class SpanKind : std::uint8_t {
  kRecharge,    // power.recharge: the slice recorded a recovery
  kCheckpoint,  // flex.checkpoint: ... a FLEX checkpoint beyond the layer header
  kSelect,      // sched.select: ... an adaptive tier select/switch/demote
  kArm,         // sched.arm: ... a job release (park + admission + arm)
  kBoot,        // flex.boot: ... a boot (cursor restore)
  kKernel,      // ace.kernel: anything else (layer kernels)
  kDevice,      // sim.device: one fleet device, build to result
  kBuild,       // sim.build: the device build recipe
  kCell,        // sim.cell: one zoo cell, build to result
  kCount
};
inline constexpr int kPhaseCount = static_cast<int>(SpanKind::kDevice);
inline constexpr int kSpanKinds = static_cast<int>(SpanKind::kCount);
const char* span_name(SpanKind k);

// What classify_slice() read off one slice's event deltas.
struct SliceEvents {
  bool browned_out = false;  // the slice ended in a brown-out
  long checkpoints = 0;      // FLEX checkpoint writes beyond the layer header
};

// Classifies one slice by the event counts before and after it.
SpanKind classify_slice(const long* before, const long* after, SliceEvents* ev);

// In-memory span log of one traced pass: kind, start, end, parent and the
// device/job the span belongs to. Written out once the run ends.
struct Span {
  std::int64_t start_ns = 0, end_ns = 0;
  std::int32_t parent = -1;  // index into the log, -1 = root
  std::int32_t device = -1;
  std::int16_t job = -1;
  SpanKind kind = SpanKind::kKernel;
};

class SpanLog {
 public:
  // Starts a pass: drops any spans and restarts the clock origin.
  void clear() {
    spans_.clear();
    origin_ = Clock::now();
  }
  std::int32_t add(SpanKind kind, Clock::time_point start, Clock::time_point end,
                   std::int32_t parent, std::int32_t device, int job) {
    spans_.push_back(Span{ns(start), ns(end), parent, device, static_cast<std::int16_t>(job),
                          kind});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  // Fixes a span's end once its children are in (device and cell spans).
  void close(std::int32_t id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end_ns = ns(end);
  }
  std::size_t size() const { return spans_.size(); }
  // Self time (span minus the part its children cover) summed per kind.
  std::vector<double> self_seconds() const;
  // Tab-separated, one span a line: id parent name device job start_ns end_ns.
  void write_tsv(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

inline constexpr int kRails = static_cast<int>(ehdnn::dev::Rail::kCount);

// NN-layer groups of the zoo's per-layer modeled cost.
enum class LayerGroup { kConv, kBcm, kFc, kOther, kCount };
inline constexpr int kLayerGroups = static_cast<int>(LayerGroup::kCount);

// Exact per-layer counters of one traced pass (slices, events, rails).
// Identical across passes for a fixed seed.
struct LayerCounts {
  long slices[kPhaseCount] = {};
  long lost_kernel_slices = 0;  // kernel slices that ended in a brown-out
  long checkpoints = 0;         // FLEX writes beyond the layer-transition headers
  long events[ehdnn::obs::kKindCount] = {};
  long builds = 0;  // fleet device builds
  long jobs = 0;
  long reboots = 0;
  double rail_energy_j[kRails] = {};
  double fram_wr_cycles = 0.0;
  double layer_cycles[kLayerGroups] = {};  // zoo only
  double layer_energy_j[kLayerGroups] = {};

  long total_slices() const;
  bool same_as(const LayerCounts& o) const;  // bitwise, doubles included
  long event(ehdnn::obs::EventKind k) const { return events[static_cast<int>(k)]; }
};

// Simulated outcome of one pass, shared by every workload. The
// signature is the bit-exact text every pass (and every run with this
// seed) must reproduce.
struct SimOutcome {
  long jobs = 0;            // attempted
  long completed = 0;
  long in_deadline = 0;
  long unexpected = 0;      // jobs whose verdict the workload does not expect
  double energy_j = 0.0;    // total modeled joules
  std::vector<double> latencies_s;  // completed jobs, finish - start, sorted
  std::string signature;
};

// One untraced pass: the wall of the public entry point's call.
struct MainPass {
  double wall_s = 0.0;
  SimOutcome sim;
};

// One traced pass, driven from the benchmark's own code.
struct TracedPass {
  double wall_s = 0.0;
  LayerCounts counts;
  SpanLog spans;
};

// A workload: set-up timed on its own, the untraced main call, the same
// call into the frozen simulator copy, and the traced replica.
// run_traced() reconciles its pass against the most recent run_main()
// pass of the same config and records the verdicts in `checks`, so a
// traced pass always follows an untraced one.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual double setup_once() = 0;  // host seconds of one set-up
  virtual MainPass run_main(Checks& checks) = 0;
  virtual frozen::Pass run_frozen() = 0;
  virtual TracedPass run_traced(Checks& checks) = 0;
  // Once per process, outside every timed region: checks that need the
  // replica even in an untraced run (zoo: FLEX output == ACE output).
  virtual void verify_outputs(Checks& checks) { (void)checks; }
};

std::unique_ptr<Workload> make_fleet_workload(const std::string& name, std::uint64_t seed);
std::unique_ptr<Workload> make_zoo_workload(std::uint64_t seed);

// Bit-exact text of a double for signatures.
std::string hexbits(double v);

// Bitwise equality of two doubles (what "bit-identical" means here).
bool same_bits(double a, double b);

// A counter of a report's metrics block; 0 when absent.
long counter_of(const ehdnn::obs::MetricsRegistry& m, const std::string& name);

}  // namespace perfbench
