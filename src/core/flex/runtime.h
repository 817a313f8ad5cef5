// Intermittent inference runtimes (paper SSIII-C and the SSIV baselines).
//
// All five execution strategies the paper evaluates run the same compiled
// model format on the same device model; only the checkpointing strategy
// (and for SONIC the compute style) differs:
//
//   * ACE (make_ace_policy) — ACE kernels, no intermittence support.
//     Fast, but on a power failure all volatile progress is gone and the
//     inference restarts; under harvested power it never completes
//     (Fig. 7b "X"). Run on the compressed model it is the paper's "ACE";
//     run on the uncompressed dense model it is the paper's "BASE".
//   * SONIC (make_sonic_policy) — SONIC [Gobieski et al., ASPLOS'19]:
//     element-wise CPU inference with loop continuation: loop indices and
//     accumulators are committed to FRAM as execution proceeds (parity
//     slots make the read-modify-write accumulator idempotent). Dense
//     models only.
//   * TAILS (make_tails_policy) — the same loop-continuation protocol, but
//     inner vector work runs on the LEA with DMA staging. Progress exists
//     only at vector-op (unit) granularity, so a failure mid-operation
//     rolls back to the start of that operation (Fig. 6 left).
//   * FLEX (make_flex_policy) — the paper's contribution: ACE kernels plus
//     *on-demand* checkpointing. A voltage monitor warns before brown-out;
//     only then does FLEX copy its state (block index, stage bits b0-b2,
//     the live intermediate buffers, the accumulator row) into a two-slot
//     FRAM checkpoint. Steady-state overhead is a cheap header write per
//     layer transition; measured total overhead is ~1% (SSIV-A.5).
//
// The correctness contract every intermittent runtime must satisfy (and
// tests/flex_test.cpp verifies): the final output equals the same
// runtime's continuous-power output bit for bit, for any failure schedule.
//
// All five strategies execute as RuntimePolicy implementations (built by
// the make_*_policy() factories) driven by the shared IntermittentExecutor
// (core/flex/executor.h), which owns the reboot/recover/starvation/stats
// loop. One inference is IntermittentExecutor(policy).run(dev, cm, input);
// start()/step()/finished() expose the same run incrementally so it can be
// suspended and interleaved. A brown-out is not an exception: it latches
// the device (dev::Device::browned_out), the policy returns at its next
// unit boundary, and the executor recharges and reboots. This header
// holds what policies and executor share: run options, run stats, and
// the cost-free I/O helpers.
#pragma once

#include <limits>
#include <vector>

#include "core/ace/compiled_model.h"
#include "core/ace/kernels.h"
#include "dsp/fft.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace ehdnn::flex {

// How a run ended. kDidNotFinish covers both the reboot cap and the
// livelock guard (the paper's Fig. 7b "X"); kStarved means the harvester
// never refilled the capacitor within its max_off_s guard — a property of
// the power scenario, not of the runtime, and reported distinctly so a
// scenario sweep can tell the two failure modes apart.
enum class Outcome { kCompleted, kDidNotFinish, kStarved };

const char* outcome_name(Outcome o);

struct RunStats {
  Outcome outcome = Outcome::kDidNotFinish;
  std::vector<fx::q15_t> output;

  bool completed() const { return outcome == Outcome::kCompleted; }

  double on_seconds = 0.0;      // device-active time
  double off_seconds = 0.0;     // recharge gaps
  double energy_j = 0.0;        // total drawn while on
  double energy_by_rail[static_cast<std::size_t>(dev::Rail::kCount)] = {};

  long reboots = 0;
  // Set (with outcome kDidNotFinish) when the executor's livelock
  // watchdog tripped: RunOptions::max_futile_boots consecutive power
  // cycles ended without banking a single progress commit or checkpoint,
  // so the run was rerunning the same work forever.
  bool livelock = false;
  long checkpoints = 0;         // explicit checkpoint events (FLEX)
  double checkpoint_energy_j = 0.0;
  long progress_commits = 0;    // steady-state index/acc commits (SONIC/TAILS)
  long units_executed = 0;      // incl. re-execution after rollback
  long units_total = 0;         // sum of unit_count over layers
  long wasted_units() const { return units_executed - units_total; }

  double total_seconds() const { return on_seconds + off_seconds; }
};

// Host wall-clock phase attribution behind the runners' --profile flag.
// All figures are seconds of HOST time, not modeled device time — the
// instrument tells you where the simulator itself spends its wall-clock
// so optimization work aims at the right phase. Attribution:
//   recharge_s   — recover_from_failure slices (analytic recharge, boot
//                  energy, starvation waits);
//   boot_s       — boot slices: the policy's on_boot (cursor/state
//                  restores, FLEX checkpoint reads);
//   checkpoint_s — FLEX checkpoint writes (carved out of the enclosing
//                  kernel slice);
//   kernel_s     — the rest of policy slices: layer kernels, staging,
//                  prepaid settlement;
//   build_s      — device construction + image stamping (drivers);
//   engine_s     — driver bookkeeping (device loop, sinks, reporting),
//                  computed by the driver as total minus the above.
// Null RunOptions::profile (the default) keeps every instrumentation
// site down to one predicted branch.
//
// The slice/recovery/checkpoint counts live as obs::MetricsRegistry
// counter cells ("profile.*") rather than plain fields, so the profile
// printout and the trace-derived metrics read the SAME cells and can
// never disagree; the hot sites cache the stable `long*` pointers below.
struct PhaseProfile {
  double build_s = 0.0;
  double recharge_s = 0.0;
  double kernel_s = 0.0;
  double boot_s = 0.0;
  double checkpoint_s = 0.0;
  double engine_s = 0.0;
  obs::MetricsRegistry reg;
  long* slices = reg.counter("profile.slices");            // policy slices (kernel_s)
  long* boots = reg.counter("profile.boots");              // boot slices (boot_s)
  long* recoveries = reg.counter("profile.recoveries");    // recover slices
  long* checkpoints = reg.counter("profile.checkpoints");  // FLEX ckpt writes
  long* sram_fills = reg.counter("profile.sram_fills");    // Device::sram_fills

  PhaseProfile() = default;
  // The cached cells point into this->reg; a copy would alias the
  // source's registry. Profiles are shared by address (RunOptions).
  PhaseProfile(const PhaseProfile&) = delete;
  PhaseProfile& operator=(const PhaseProfile&) = delete;
};

struct RunOptions {
  dsp::FftScaling scaling = dsp::FftScaling::kBlockFloat;
  fx::SatStats* stats = nullptr;
  // Wall-clock phase accounting (--profile); null = off. The pointee is
  // shared across every run the driver profiles and is NOT thread-safe:
  // drivers only wire it on their serial execution paths.
  PhaseProfile* profile = nullptr;
  // Lifecycle-event sink (obs/events.h); null = off (one predicted
  // branch per instrumentation site). Unlike `profile` this IS safe
  // under parallel drivers because each device gets its OWN trace —
  // events are stamped with the device-local simulated clock, so the
  // stream is identical for any worker count.
  obs::EventTrace* trace = nullptr;
  long max_reboots = 200000;  // livelock guard (BASE/ACE under harvesting)
  // Executor-level livelock watchdog: after this many *consecutive* boots
  // that bank neither a progress commit nor a checkpoint, the run is
  // abandoned as kDidNotFinish with RunStats::livelock set. 0 disables
  // the watchdog (the default — one-shot API behaviour is unchanged);
  // the scenario/fleet harnesses enable it so a conv that outcosts the
  // charge burst fails loudly instead of rerunning until max_reboots.
  long max_futile_boots = 0;
  // FLEX voltage-monitor warning threshold (volts). Sized so the energy
  // between v_warn and the brown-out voltage covers the worst-case
  // checkpoint (power::warn_voltage_for computes it from the capacitor
  // parameters and worst_checkpoint_energy below).
  double flex_v_warn = 2.45;
  // Job context, visible to policies through StepContext::opts: the
  // absolute supply-time instant this inference is due (infinity = no
  // deadline). The executor itself never reads it — it exists so a
  // scheduling policy (sched::AdaptivePolicy under sel=deadline) can pick
  // its tier against the time actually remaining. sched::JobQueue fills
  // it from the agenda at every release.
  double deadline_s = std::numeric_limits<double>::infinity();
};

// Worst-case FLEX checkpoint cost for a compiled model on this device —
// the quantity the voltage-monitor threshold must budget for (and the
// paper's "at most 0.033 mJ" per-checkpoint bound, SSIV-A.5).
double worst_checkpoint_energy(const ace::CompiledModel& cm, const dev::CostModel& cost);

// SONIC's largest *minimal committable unit* for a compiled model: the
// most expensive single conv output element / dense inner tile / element
// block, including its operand reads and commit write. A charge burst
// below this (with margin) livelocks SONIC — the static geometry test
// that pins the adaptive ladder to the tile runtime at micro-capacitor
// envelopes (sched::AdaptiveSpec::ckpt_margin).
double sonic_worst_commit_energy(const ace::CompiledModel& cm, const dev::CostModel& cost);

// --- shared helpers ---------------------------------------------------------

// Writes the input into act_a, cost-free: sensor DMA happens outside the
// measured window for every framework alike.
void load_input(dev::Device& dev, const ace::CompiledModel& cm,
                std::span<const fx::q15_t> input);

// Reads the final output from the last layer's activation buffer
// (cost-free extraction for comparison).
std::vector<fx::q15_t> read_output(dev::Device& dev, const ace::CompiledModel& cm);

// Shared post-failure step: recharge the supply, detect starvation,
// reboot the device. Returns false when the run must stop because the
// harvester starved (outcome already recorded on `st`); the caller breaks
// its retry loop. Off-time is accumulated on `st`. The reboot's boot
// sequence is costed and can brown out again: the device is then
// latched on return.
bool recover_from_failure(dev::Device& dev, RunStats& st);

// Simulated-time stamp for obs events: the supply clock when attached
// (device-local, monotone, invariant under --jobs/--shards), else the
// device's modeled elapsed time (bench power).
inline double obs_now_s(const dev::Device& dev) {
  const dev::PowerSupply* s = dev.supply();
  return s != nullptr ? s->now() : dev.elapsed_seconds();
}

// Start-of-inference marker so stats are per-inference deltas even when a
// device instance runs many inferences.
struct TraceBaseline {
  double energy[static_cast<std::size_t>(dev::Rail::kCount)] = {};
  double total_cycles = 0.0;
  long reboots = 0;
};
TraceBaseline mark(const dev::Device& dev);

// Fills RunStats energy/time fields from the device trace delta.
void fill_stats(RunStats& st, const dev::Device& dev, const TraceBaseline& base);

// Sum of unit_count over all layers.
long total_units(const ace::CompiledModel& cm);

}  // namespace ehdnn::flex
