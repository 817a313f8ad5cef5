// The MSP430FR5994-class device model: CPU + LEA + DMA + SRAM + FRAM,
// costed by CostModel, powered through PowerSupply.
//
// Every method that represents on-device work (1) computes its cycle and
// energy cost, (2) draws that energy from the supply, and (3) applies its
// architectural effect to the real memory contents — unless the draw
// browned out. A brown-out is a latched device state, as on the real
// part, where it is a reset: the failing op's trace charge lands but its
// effect does not, and from then until reboot() every costed op is
// inert — no trace charge, no supply draw, no memory effect, no supply
// notification. Code running on the device tests browned_out() at its
// next unit boundary and returns; the intermittent executor
// (core/flex/executor.h) then recharges and reboots. Mutating operations
// that touch non-volatile FRAM are word-granular so a power failure can
// leave a partially written FRAM region — exactly the hazard the
// intermittent runtimes must handle.
// LEA operations read and write SRAM only, so their all-or-nothing
// modelling is unobservable (SRAM is scrambled at reboot anyway). The
// same argument covers the row-batched conv kernels (core/ace/kernels.cpp),
// which compute an output row on the host and replay its per-pixel
// charges through the cost-only charge_* primitives below: the charges
// and their order are the per-pixel ops' exactly, and the SRAM window
// buffer they skip writing is rewritten before the row exits normally.
// After a brown-out mid-row that buffer may differ from the per-op
// path's, but only until reboot() scrambles it.
//
// The scalar CPU runtimes (SONIC, TILE) charge their MAC loops through
// charge runs (charge_run below): whole repetitions of a fixed pattern of
// fixed-cost charges, each drawn exactly as its op would draw it, with
// the values computed afterwards in one host pass. A run charges only
// repetitions whose every draw provably takes the arm the op would take
// (buffered in an open prepaid window; trace only on bench power; settled
// at once against an infallible supply) and otherwise hands the next
// repetition back to the caller's per-op loop, which decides per op as
// always. set_bulk_enabled(false) refuses every run: that per-op loop is
// the fallback and the test oracle.
//
// Default geometry matches the evaluation board: 8 KB SRAM (4 K words),
// 256 KB FRAM (128 K words), 16 MHz. The LEA owns no memory of its own; it
// operates on SRAM like the real block (which shares the lower SRAM bank).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "device/cost_model.h"
#include "device/energy_trace.h"
#include "device/memory.h"
#include "device/power_interface.h"
#include "dsp/fft.h"
#include "fixed/cq15.h"
#include "util/check.h"

namespace ehdnn::dev {

struct DeviceConfig {
  std::size_t sram_words = 4 * 1024;    // 8 KB
  std::size_t fram_words = 128 * 1024;  // 256 KB
  CostModel cost;
  std::uint64_t scramble_seed = 0xdeadbeef;
};

// Recycled backing storage for a device's memory regions. A retired
// device donates its word buffers via release_slabs(); constructing the
// next device from them (as each fleet worker does) skips the two
// dominant per-device heap allocations. Semantically inert: a slab-built
// device is indistinguishable from a freshly allocated one (its regions
// zero their words on demand, whatever the buffers held).
struct DeviceSlabs {
  WordStorage sram, fram;
};

// The draw one fixed-cost op makes: a word read or write, the MPY32 MAC,
// or a cpu_ops(n) burst on its single-draw arm (Device::read_cost and
// friends). Each evaluates spend()'s exact expressions, so each cost
// formula exists once.
struct FixedOpCost {
  Rail rail = Rail::kCpu;
  double cycles = 0.0, dt = 0.0, joules = 0.0;
  bool operator==(const FixedOpCost&) const = default;
};

// A short, fixed sequence of fixed-cost charges that Device::charge_run
// repeats: one loop iteration's draws, in the order its ops make them.
class ChargePattern {
 public:
  static constexpr std::size_t kMaxSteps = 4;
  ChargePattern(std::initializer_list<FixedOpCost> steps) : n_(steps.size()) {
    check(n_ >= 1 && n_ <= kMaxSteps, "ChargePattern: 1 to 4 charges");
    std::copy(steps.begin(), steps.end(), steps_.begin());
  }
  std::span<const FixedOpCost> steps() const { return {steps_.data(), n_}; }
  bool operator==(const ChargePattern& o) const {
    return std::ranges::equal(steps(), o.steps());
  }

 private:
  std::array<FixedOpCost, kMaxSteps> steps_{};
  std::size_t n_;
};
static_assert(ChargePattern::kMaxSteps <= EnergyTrace::kRepeatedRails);

class Device {
 public:
  explicit Device(DeviceConfig cfg = {}, DeviceSlabs* slabs = nullptr);

  // Donate the memory regions' backing storage into `out` for reuse by a
  // future Device. The device must not be used afterwards.
  void release_slabs(DeviceSlabs& out) {
    out.sram = sram_.take_storage();
    out.fram = fram_.take_storage();
  }

  // Attach the supply (non-owning). Without one the device is on bench
  // power: nothing ever fails.
  void attach_supply(PowerSupply* supply) {
    supply_ = supply;
    prepay_supported_ = supply != nullptr && supply->prepay_safe();
    infallible_ = supply != nullptr && supply->infallible();
    // One capacity-sized reservation up front keeps the per-spend
    // push_back growth-free for the window's whole lifetime.
    if (prepay_supported_) prepaid_.reserve(kPrepaidMaxEvents);
  }
  PowerSupply* supply() { return supply_; }
  const PowerSupply* supply() const { return supply_; }

  // True from the op whose draw browned out until reboot(). While it is
  // set every costed op is inert (see the file comment).
  bool browned_out() const { return browned_out_; }
  // Drops the latch without a reboot. A run abandoned on a browned-out
  // device (DNF, starvation) leaves it latched; the next run armed on it
  // (IntermittentExecutor::start) draws again from whatever the supply
  // holds by then, so its first op decides whether the device is still
  // dead. reboot() is the power-on reset.
  void clear_brown_out() { browned_out_ = false; }
  // Announces an execution landmark to the attached supply; nothing
  // without one, and nothing while browned out.
  void notify_supply(SupplyEvent e) {
    if (supply_ != nullptr && !browned_out_) supply_->notify(e);
  }

  MemoryRegion& sram() { return sram_; }
  MemoryRegion& fram() { return fram_; }
  const MemoryRegion& sram() const { return sram_; }
  const MemoryRegion& fram() const { return fram_; }
  MemoryRegion& region(MemKind k) { return k == MemKind::kSram ? sram_ : fram_; }

  EnergyTrace& trace() { return trace_; }
  const EnergyTrace& trace() const { return trace_; }
  const CostModel& cost() const { return cfg_.cost; }
  // The construction-time geometry/cost configuration — what a scratch
  // replica of this device must be built from (the scheduler's
  // completion-model calibration runs on such replicas).
  const DeviceConfig& config() const { return cfg_; }

  double elapsed_cycles() const { return trace_.total_cycles(); }
  double elapsed_seconds() const { return cfg_.cost.seconds(trace_.total_cycles()); }
  long reboots() const { return reboots_; }
  // Deferred SRAM scrambles materialized so far (memory.h): the reboots
  // whose garbage something actually looked at. A deterministic count of
  // the host work reboot() defers.
  long sram_fills() const { return sram_.fills(); }

  // ---- CPU ------------------------------------------------------------
  // n generic ALU cycles (loop control, compares, pointer arithmetic).
  void cpu_ops(double n_ops);
  // One 16x16+32 software MAC through the MPY32 peripheral (operands must
  // already be in registers; memory traffic is charged separately).
  void cpu_mac_cycles();

  // Costed word accesses from the CPU.
  fx::q15_t read(MemKind mem, Addr a);
  void write(MemKind mem, Addr a, fx::q15_t v);

  // ---- bulk CPU accesses ----------------------------------------------
  // Block transfers with the exact cost model of the equivalent scalar
  // read()/write() sequence, charged as ONE bounds check and ONE
  // aggregated cost/energy event per call instead of one per word. When
  // the supply's headroom cannot cover a whole block, every bulk entry
  // point falls back to the scalar per-word sequence, so a brown-out
  // mid-block leaves the same word-granular clean FRAM prefix AND the
  // same prefix-only trace/supply accounting the scalar path would.
  // (Under a *time-varying* harvest source the aggregated draw samples
  // income once per block, so later failure timing may shift vs. the
  // scalar path — see PowerSupply::headroom; outputs and cost totals are
  // unaffected.)
  //
  // set_bulk_enabled(false) forces every bulk entry point through the
  // scalar per-word loops — the reference mode the perf harness and the
  // equivalence tests compare against.
  bool bulk_enabled() const { return bulk_enabled_; }
  void set_bulk_enabled(bool on) { bulk_enabled_ = on; }

  // out[i] = mem[a + i], costed as out.size() scalar reads.
  void read_block(MemKind mem, Addr a, std::span<fx::q15_t> out);
  // mem[a + i] = v[i], costed as v.size() scalar writes.
  void write_block(MemKind mem, Addr a, std::span<const fx::q15_t> v);
  // Gathered read: out[i] = mem[base + offsets[i]]. `span_words` bounds
  // the window [base, base + span_words) that all offsets fall in — the
  // single range check that replaces the per-word ones. A caller whose
  // offsets are in-span BY CONSTRUCTION (the compile-time gather plans:
  // LayerPlan records span = max offset + 1 while building the table)
  // passes offsets_in_span=true to skip the per-element guard; the
  // invariant is still assert()-checked in debug builds.
  void read_gather(MemKind mem, Addr base, std::span<const std::uint32_t> offsets,
                   std::size_t span_words, std::span<fx::q15_t> out,
                   bool offsets_in_span = false);
  // LEA MAC over SRAM operand blocks (identical cost and semantics to
  // lea_mac, which delegates here): one bounds check per operand and a
  // tight pointer loop instead of per-word peeks. The 32-bit excursion
  // scan runs only when `overflow` is requested.
  std::int64_t mac_block(Addr a, Addr b, std::size_t n, bool* overflow = nullptr);
  // CPU copy loop (the non-DMA arm of ACE's data-movement decision):
  // per word, 2 ALU ops + one read + one write, charged as three
  // aggregated events. Torn-prefix semantics preserved for FRAM
  // destinations as with write_block.
  void cpu_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst, std::size_t words);

  // ---- cost-only charges ----------------------------------------------
  // The one aggregated charge each bulk arm above makes, without its
  // memory effect; the bulk arms themselves are built on these, so each
  // cost formula exists once. A caller that computes the effect on the
  // host replays an op's charge through them and stays charge-for-charge
  // identical to calling the op. charge_cpu_ops/read/write return false,
  // charging nothing, when the op would not take its bulk arm (bulk
  // disabled, browned out, or the supply cannot provably cover the draw);
  // the caller then runs the op itself, which decides the same way and
  // takes its word-granular arm. They also return false when their own
  // draw browned out; the op the caller then runs is inert. (cpu_ops has
  // no scalar reference mode, so charge_cpu_ops ignores
  // set_bulk_enabled.)
  bool charge_cpu_ops(double n_ops) {
    const FixedOpCost c = cpu_ops_cost(n_ops);
    if (n_ops > 1.0 && !can_bulk_spend(c.joules)) return false;
    return spend_fixed(c);
  }
  // read_block / read_gather
  bool charge_read(MemKind mem, std::size_t n) {
    const CostModel& cm = cfg_.cost;
    const bool sram = mem == MemKind::kSram;
    return charge_block(sram ? Rail::kSramRead : Rail::kFramRead,
                        sram ? cm.cycles_sram_word : cm.cycles_fram_word,
                        sram ? cm.e_sram_read : cm.e_fram_read, n);
  }
  // write_block
  bool charge_write(MemKind mem, std::size_t n) {
    const CostModel& cm = cfg_.cost;
    const bool sram = mem == MemKind::kSram;
    return charge_block(sram ? Rail::kSramWrite : Rail::kFramWrite,
                        sram ? cm.cycles_sram_word : cm.cycles_fram_word,
                        sram ? cm.e_sram_write : cm.e_fram_write, n);
  }
  // mac_block's charge: one LEA spend, no word-granular arm. False when
  // the draw browned out (or the device already had).
  bool charge_mac(std::size_t n) {
    const CostModel& cm = cfg_.cost;
    return spend(Rail::kLea, cm.lea_setup + cm.lea_mac_per_elem * static_cast<double>(n),
                 static_cast<double>(2 * n) * cm.e_sram_read, cm.p_lea_active);
  }

  // ---- charge runs ------------------------------------------------------
  // The draws of read(), write(), cpu_mac_cycles() and cpu_ops(n_ops).
  // The word accesses and the MAC are construction-time images.
  const FixedOpCost& read_cost(MemKind mem) const {
    return mem == MemKind::kSram ? c_sram_rd_ : c_fram_rd_;
  }
  const FixedOpCost& write_cost(MemKind mem) const {
    return mem == MemKind::kSram ? c_sram_wr_ : c_fram_wr_;
  }
  const FixedOpCost& mac_cost() const { return c_cpu_mac_; }
  FixedOpCost cpu_ops_cost(double n_ops) const {
    const CostModel& cm = cfg_.cost;
    return fixed_cost(Rail::kCpu, n_ops * cm.cycles_cpu_op, 0.0, cm.p_cpu_active);
  }

  // Charges whole repetitions of `p`, at most `reps`, and returns how
  // many it charged. Every draw is the one its op would make — the same
  // trace additions in the same order, the same prepaid-window budget
  // test and event cap, the same SpendEvents — and a repetition is charged
  // only when all its draws provably take the arm the ops would take:
  //   * inside an open prepaid window, buffered against its budget;
  //   * on bench power (no supply), trace only;
  //   * on an infallible() supply with no window (ContinuousPower),
  //     settled with it, in order, through consume_batch() before it
  //     returns.
  // Anywhere else — a fallible supply with no window open, a window that
  // cannot take the next repetition, a latched device,
  // set_bulk_enabled(false) — it stops short, never inside a repetition.
  // The caller then runs the next repetition through the real ops, which
  // decide per op as always, and retries: charge_loop() below.
  std::size_t charge_run(const ChargePattern& p, std::size_t reps);

  // Charges `reps` repetitions of a loop body whose draws are `p`:
  // through charge runs where they apply, and per_op(i) — repetition i
  // through the body's real ops — where a run stops short. Returns early
  // once the device is browned out; the body's effects are the caller's
  // to compute afterwards (they are discarded after a brown-out).
  template <class PerOp>
  void charge_loop(const ChargePattern& p, std::size_t reps, PerOp&& per_op) {
    std::size_t i = 0;
    while (i < reps && !browned_out_) {
      i += charge_run(p, reps - i);
      if (i < reps) per_op(i++);
    }
  }

  // ---- DMA ------------------------------------------------------------
  // Bulk copy; word-granular effect application so FRAM writes can be
  // torn by a power failure.
  void dma_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst, std::size_t words);

  // ---- LEA vector ops (SRAM operands only) ------------------------------
  // MAC: sum of products over n q15 elements, 64-bit simulation accumulator
  // (Q30 units). The real block has a 32-bit accumulator; overflow beyond
  // it is reported through `overflow` when provided.
  std::int64_t lea_mac(Addr a, Addr b, std::size_t n, bool* overflow = nullptr);

  // Element-wise ops.
  void lea_add(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats = nullptr);
  void lea_mpy(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats = nullptr);
  void lea_shift(Addr a, Addr out, std::size_t n, int left_shift,
                 fx::SatStats* stats = nullptr);
  // Complex multiply over interleaved (re,im) buffers of n complex elems.
  void lea_cmul(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats = nullptr);

  // In-place FFT/IFFT over n interleaved complex elements at `a`
  // (2n words). Returns the scaling exponent increment (see dsp/fft.h).
  int lea_fft(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats = nullptr);
  int lea_ifft(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats = nullptr);

  // ---- power ------------------------------------------------------------
  // Reboot after a power failure: clears the brown-out latch, SRAM
  // scrambled, FRAM retained. (The runtime decides what to do next;
  // boot-time cost is charged, and can brown out again.)
  // The scramble draws one key from the device's scramble seed stream;
  // the SRAM words are filled from it only when something next accesses
  // SRAM, so a reboot that nothing observes costs no fill.
  void reboot();

  // Sample the supply voltage (the FLEX voltage-monitor read; costs a few
  // CPU cycles for the comparator/ADC poll). Settles any open prepaid
  // window first — the comparator reads the true, settled store. While
  // browned out the read is free and the store unchanged.
  double sample_voltage();

  // ---- prepaid-headroom settlement --------------------------------------
  // Against a prepay_safe() supply, spend() arms a window from
  // PowerSupply::prepaid_budget() and buffers draws against a local
  // accumulator instead of routing each through virtual consume(). The
  // buffered draws are replayed in order (consume_batch) at settlement
  // points — slice boundaries (the executor calls settle_supply), voltage
  // samples, and any state-dependent query — so supply-side arithmetic,
  // income sampling, and failure instants are bit-identical to per-op
  // settlement. Draws the budget cannot cover settle per-op, which is
  // what keeps brown-out instants (and the fuzzer's schedules) exact.
  // A latched device never has a window open.
  void settle_supply();
  bool prepaid_window_open() const { return prepaid_open_; }

 private:
  // Settlement windows are bounded so the supply's budget slack
  // (PowerSupply::prepaid_budget) covers the worst-case replay rounding.
  static constexpr std::size_t kPrepaidMaxEvents = 4096;

  // Every costed op funnels through here, ~10M times per fleet-bench
  // device-second — so the common case (an open prepaid window with
  // budget to spare) is inline: cost arithmetic, trace bookkeeping, and
  // one buffered event. Everything else (the brown-out latch, settlement,
  // arming a new window, per-op consume near brown-out, bench power) is
  // the out-of-line tail. Returns false when the op must not apply its
  // effect: its own draw browned out, or the device already had. The
  // inline arm returns a constant true, so an op's `if (spend(...))`
  // folds away on the fast path.
  bool spend(Rail rail, double cycles, double extra_energy_joules,
             double active_power_watts) {
    const double dt = cfg_.cost.seconds(cycles);
    const double joules = active_power_watts * dt + extra_energy_joules;
    if (prepaid_open_ && joules <= prepaid_budget_ &&
        prepaid_.size() < kPrepaidMaxEvents) {
      trace_.add(rail, joules, cycles);
      prepaid_budget_ -= joules;
      prepaid_.push_back({joules, dt});
      return true;
    }
    return spend_slow(rail, cycles, joules, dt);
  }
  bool spend_slow(Rail rail, double cycles, double joules, double dt);

  // A charge run buffers or settles its SpendEvents kRunChunkReps
  // repetitions at a time, copied from run_events(p): p's events repeated
  // that often, rebuilt only when the pattern differs from the last one's.
  static constexpr std::size_t kRunChunkReps = 32;
  const SpendEvent* run_events(const ChargePattern& p);

  // What spend() computes for a fixed-cycle op — the scalar word
  // accesses and the MPY32 MAC run millions of times with constant cost,
  // so the division and energy arithmetic are done once, with identical
  // rounding (the exact spend() expressions).
  FixedOpCost fixed_cost(Rail rail, double cycles, double extra_energy_joules,
                         double active_power_watts) const {
    const double dt = cfg_.cost.seconds(cycles);
    return {rail, cycles, dt, active_power_watts * dt + extra_energy_joules};
  }
  // spend() for a fixed-cost op. Forced inline: read() and write() run it
  // per word, and left to its heuristics the compiler stops inlining it
  // there.
  [[gnu::always_inline]] bool spend_fixed(const FixedOpCost& c) {
    if (prepaid_open_ && c.joules <= prepaid_budget_ &&
        prepaid_.size() < kPrepaidMaxEvents) {
      trace_.add(c.rail, c.joules, c.cycles);
      prepaid_budget_ -= c.joules;
      prepaid_.push_back({c.joules, c.dt});
      return true;
    }
    return spend_slow(c.rail, c.cycles, c.joules, c.dt);
  }

  // True when an aggregated draw of `joules` provably cannot brown out,
  // so per-word accounting can be collapsed without changing which FRAM
  // words commit before a failure. (Non-const: deciding may require
  // settling the prepaid window to read true headroom.)
  bool can_bulk_spend(double joules) {
    // Within the open window's remaining budget the draw provably
    // succeeds (true headroom only exceeds the budget: income adds, every
    // buffered draw was already debited), so no settlement is needed.
    if (supply_ == nullptr || (prepaid_open_ && joules <= prepaid_budget_)) return true;
    return can_bulk_spend_slow(joules);
  }
  bool can_bulk_spend_slow(double joules);
  // A bulk memory op's charge: n words at `word_cycles` and `word_joules`.
  bool charge_block(Rail rail, double word_cycles, double word_joules, std::size_t n) {
    const CostModel& cm = cfg_.cost;
    const auto dn = static_cast<double>(n);
    const double cycles = dn * word_cycles;
    const double extra = dn * word_joules;
    if (!bulk_enabled_ || !can_bulk_spend(spend_joules(cycles, extra, cm.p_cpu_active))) {
      return false;
    }
    return spend(rail, cycles, extra, cm.p_cpu_active);
  }
  // Total joules spend() would draw for `cycles` at `watts` plus extras.
  double spend_joules(double cycles, double extra_energy_joules, double watts) const {
    return watts * cfg_.cost.seconds(cycles) + extra_energy_joules;
  }

  DeviceConfig cfg_;
  FixedOpCost c_sram_rd_, c_sram_wr_, c_fram_rd_, c_fram_wr_, c_cpu_mac_;
  MemoryRegion sram_;
  MemoryRegion fram_;
  EnergyTrace trace_;
  PowerSupply* supply_ = nullptr;
  Rng scramble_rng_;
  long reboots_ = 0;
  bool browned_out_ = false;
  bool bulk_enabled_ = true;
  bool prepay_supported_ = false;  // cached supply->prepay_safe()
  bool infallible_ = false;        // cached supply->infallible()
  bool prepaid_open_ = false;
  double prepaid_budget_ = 0.0;    // remaining armed budget (joules)
  std::vector<SpendEvent> prepaid_;
  std::optional<ChargePattern> run_pattern_;
  std::vector<SpendEvent> run_events_;
  std::vector<fx::cq15> fft_scratch_;  // reused by lea_fft/lea_ifft
};

}  // namespace ehdnn::dev
