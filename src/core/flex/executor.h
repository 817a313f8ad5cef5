// The step-based intermittent execution core.
//
// Every execution strategy the paper evaluates (BASE/ACE, SONIC, TAILS,
// FLEX) shares one loop: boot, restore whatever progress cursor the
// strategy persists, execute resumable chunks until a brown-out latches
// the device (dev::Device::browned_out), recharge, reboot, repeat — while
// accounting time, energy, reboots and starvation. Historically each
// runtime re-implemented that loop around a monolithic run-to-completion
// body; here the loop lives once in IntermittentExecutor and the
// strategies are RuntimePolicy implementations (the same
// policy-vs-engine split SONIC/TAILS made at the kernel level).
//
// The executor is *incremental*: start() arms a run, each step() executes
// at most one bounded slice (a policy chunk, a boot, or a post-failure
// recovery), and finished()/stats() read the result. Between step() calls
// nothing touches the device, so a caller can act between slices — the
// agenda queue (sched/agenda.h) parks the device between jobs, and the
// phase profiler attributes host time per slice.
// run() is start() plus a step() drain loop: the one call every caller
// uses to execute an inference with a policy from make_*_policy().
#pragma once

#include <memory>
#include <string>

#include "core/flex/runtime.h"

namespace ehdnn::flex {

// Everything a policy may touch while executing: the device under power,
// the compiled model, the (cost-free) input, caller options, and the
// run's stats accumulator.
struct StepContext {
  dev::Device& dev;
  const ace::CompiledModel& cm;
  std::span<const fx::q15_t> input;
  const RunOptions& opts;
  RunStats& st;
};

// A checkpoint strategy, driven by the executor. Policies are stateful
// per run (cursors, livelock counters, checkpoint sequence numbers) and
// reusable across runs: on_boot(fresh=true) must reset everything.
class RuntimePolicy {
 public:
  virtual ~RuntimePolicy() = default;

  // Units accounted as RunStats::units_total for this policy (SONIC
  // counts element tiles; everyone else the ACE kernel units).
  virtual long units_total(const ace::CompiledModel& cm) const { return total_units(cm); }

  // The brown-out contract for on_boot, step and every hook below: a
  // costed op may brown out and latch the device, after which every op
  // is inert. Code must test ctx.dev.browned_out() at its next unit
  // boundary and return, and between the failing op and that return it
  // must change nothing the run can observe — no RunStats counter, no
  // obs event, no commit hook, no cursor that outlives the reboot. The
  // executor tests the latch after on_boot and step.

  // Called at the start of every power cycle: once with fresh=true when
  // the run starts (load the input, reset persistent cursors in FRAM) and
  // with fresh=false after every reboot (restore the cursor from FRAM).
  virtual void on_boot(StepContext& ctx, bool fresh) = 0;

  // Executes one resumable chunk — one layer, in every shipped policy.
  // Returns true when the inference has fully committed its output; a
  // slice that browned out returns false.
  virtual bool step(StepContext& ctx) = 0;

  // Unit-commit bookkeeping hook. Policies that wire ace::UnitHooks call
  // this from `committed`; the default counts the unit, and persistent
  // policies layer their commit writes on top (FLEX checkpoints every
  // commit once the monitor has warned).
  virtual void on_commit(StepContext& ctx, std::size_t unit) {
    (void)unit;
    ++ctx.st.units_executed;
    obs::record(ctx.opts.trace, obs_now_s(ctx.dev), obs::EventKind::kCommit);
  }

  // Consulted after a power failure, before the executor's own
  // max_reboots guard and the recharge: return false to abandon the run
  // as DNF (ACE's livelock detector lives here). `attempt_cycles` is the
  // device-cycle count of the power cycle that just died.
  virtual bool retry_after_failure(StepContext& ctx, double attempt_cycles) {
    (void)ctx;
    (void)attempt_cycles;
    return true;
  }

  // The compiled model whose output buffer holds the final result —
  // `armed` (what start() was called with) for every fixed policy. The
  // adaptive scheduler may finish a run on a co-resident model variant
  // (e.g. the dense twin under a lean forecast) and redirects the
  // executor's output read there.
  virtual const ace::CompiledModel& output_model(const ace::CompiledModel& armed) const {
    return armed;
  }
};

// Owns the reboot/recover/starvation/stats loop shared by all runtimes
// and drives a RuntimePolicy through it, one bounded slice per step().
class IntermittentExecutor {
 public:
  // Non-owning: the policy must outlive the executor. A policy instance
  // must not be shared by two executors with overlapping runs.
  explicit IntermittentExecutor(RuntimePolicy& policy) : policy_(&policy) {}

  // Arms a run. `input` must stay alive until the run finishes (it is
  // re-loaded on every reboot by restart-from-scratch policies). Calling
  // start() again abandons any unfinished run and starts fresh.
  void start(dev::Device& dev, const ace::CompiledModel& cm,
             std::span<const fx::q15_t> input, const RunOptions& opts = {});

  // Executes at most one slice: a boot (cursor restore), one policy
  // chunk, or the failure/recovery handling after a brown-out. Returns
  // true while the run wants more step() calls; false once finished
  // (also when called without an armed run).
  bool step();

  // True once the run has ended — completed, DNF, or starved.
  bool finished() const { return done_; }

  // The run's stats; fully populated (trace deltas, output) only once
  // finished() is true.
  const RunStats& stats() const { return st_; }
  RunStats take_stats() { return std::move(st_); }

  // One inference: start() + drain. The device must already have its
  // supply attached; failures and reboots are handled internally.
  RunStats run(dev::Device& dev, const ace::CompiledModel& cm,
               std::span<const fx::q15_t> input, const RunOptions& opts = {});

 private:
  void finish();
  // The brown-out handler: watchdog, retry policy, reboot cap. Returns
  // step()'s value.
  bool on_brown_out();
  // The slice body behind step(). When profiling, `phase` receives which
  // PhaseProfile slot the slice's wall-clock belongs to (0 = kernel,
  // 1 = recharge, 2 = boot); null when not profiling.
  bool step_impl(int* phase);
  StepContext ctx() { return StepContext{*dev_, *cm_, input_, opts_, st_}; }

  RuntimePolicy* policy_;
  dev::Device* dev_ = nullptr;
  const ace::CompiledModel* cm_ = nullptr;
  std::span<const fx::q15_t> input_;
  RunOptions opts_;
  RunStats st_;
  TraceBaseline base_;
  double attempt_start_cycles_ = 0.0;
  // Livelock watchdog (RunOptions::max_futile_boots): consecutive power
  // cycles whose banked progress (progress_commits + checkpoints) did not
  // move. Reset on any banked progress and at start().
  long futile_boots_ = 0;
  long banked_mark_ = 0;
  bool need_recover_ = false;
  bool need_boot_ = true;
  bool fresh_ = true;
  bool done_ = true;  // no run armed yet
};

// Policy factories — the five strategies as policies.
std::unique_ptr<RuntimePolicy> make_ace_policy();  // also BASE (dense model)
std::unique_ptr<RuntimePolicy> make_sonic_policy();
std::unique_ptr<RuntimePolicy> make_tails_policy();
std::unique_ptr<RuntimePolicy> make_flex_policy();

// The tile policy (sub-layer progress preservation): conv/FC layers
// execute in reduction tiles of `tile_elems` MACs, each followed by a
// torn-write-safe commit of a (layer, outer, tile, accumulator) cursor to
// a double-buffered FRAM record — so a boot banks a few tiles even when a
// whole conv pixel outcosts the charge burst (micro-capacitor envelopes
// where SONIC's per-pixel commit livelocks). Dense models only, exactly
// like SONIC. Spec grammar: "tile" or "tile:t=N" (N >= 1).
struct TileSpec {
  std::size_t tile_elems = 8;
};
TileSpec parse_tile_spec(const std::string& key);  // throws on malformed args
std::unique_ptr<RuntimePolicy> make_tile_policy(TileSpec spec = {});

}  // namespace ehdnn::flex
