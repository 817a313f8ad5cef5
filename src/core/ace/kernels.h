// ACE layer kernels: the on-device executors (paper SSIII-B).
//
// Every kernel:
//   * reads its input activations from one FRAM circular buffer and
//     commits outputs to the other,
//   * stages operands in SRAM and runs the heavy math on the LEA
//     (whole-kernel MAC convolution per Fig. 4; FFT -> CMUL -> IFFT block
//     circulant FC per Algorithm 1),
//   * moves bulk data with DMA when the cost model says DMA wins,
//   * is resumable at *unit* granularity: a unit is the smallest chunk of
//     work whose results are fully committed to FRAM (an output row for
//     conv, a (chunk x neuron-block) tile for Dense, a block row for
//     BcmDense, an element range for the CPU layers; a Conv1D layer is a
//     Conv2D with one output row, so its unit is one filter's output).
//     Units are sized so a single unit always fits in one harvest burst —
//     the forward-progress requirement of intermittent execution.
//
// Intermittent runtimes drive kernels with a start unit (fast-forward
// after reboot) and receive hooks at unit boundaries; FLEX additionally
// observes the BCM kernel at *stage* granularity (Fig. 6's b0-b2 states)
// so it can checkpoint mid-block on a voltage warning.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/ace/compiled_model.h"
#include "dsp/fft.h"
#include "util/math.h"

namespace ehdnn::ace {

// Reusable host-side staging for the bulk kernels. Buffers grow once to
// their high-water mark and are reused across units and layers; runtimes
// hold one arena per inference so the steady state allocates nothing.
// Distinct vectors exist for the buffers that are live simultaneously
// (a `need` call may resize its vector, invalidating spans into it).
struct ScratchArena {
  std::vector<fx::q15_t> gather;  // gathered weights / windows
  std::vector<fx::q15_t> row;     // staged rows / real parts / x-w blocks
  std::vector<fx::q15_t> acc;     // accumulator-row images (acc32/acc64)
  std::vector<fx::q15_t> bias;    // bias block staging
  std::vector<fx::q15_t> spect;   // BCM interleave / spectrum staging
  std::vector<std::int64_t> row_acc;  // conv output row's exact accumulators

  template <class T>
  static std::span<T> need(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return {v.data(), n};
  }
};

struct ExecCtx {
  dev::Device& dev;
  const CompiledModel& cm;
  std::size_t layer = 0;
  dev::Addr in_addr = 0;   // FRAM activation input base
  dev::Addr out_addr = 0;  // FRAM activation output base
  dsp::FftScaling scaling = dsp::FftScaling::kBlockFloat;
  fx::SatStats* stats = nullptr;
  // Optional cross-layer scratch; kernels fall back to a per-run arena.
  ScratchArena* arena = nullptr;

  const quant::QLayer& q() const { return cm.model.layers[layer]; }
  const LayerImage& img() const { return cm.images[layer]; }
  const LayerPlan& plan() const { return cm.plans[layer]; }
};

struct UnitHooks {
  // Called before starting each unit (FLEX polls the voltage monitor here).
  std::function<void(std::size_t unit)> boundary;
  // Called after unit `unit` is fully committed to FRAM.
  std::function<void(std::size_t unit)> committed;
};

// Number of resumable units for a layer.
std::size_t unit_count(const quant::QLayer& l);

// Narrowing shift from a layer's exact Q30 accumulator to its output scale.
inline int acc_rshift(const quant::QLayer& l) {
  return 15 + l.out_exp - l.w_exp - l.in_exp;
}

// Dense tiling: units are (chunk, neuron-block) pairs; neuron blocks keep
// per-unit work small enough to fit inside one harvest burst.
inline constexpr std::size_t kDenseNeuronBlock = 32;
inline std::size_t dense_neuron_blocks(const quant::QLayer& l) {
  return div_ceil(l.out_ch, kDenseNeuronBlock);
}

// Every kernel below tests the device's brown-out latch at its unit
// boundaries (dev::Device::browned_out) and returns early: no hook or
// observer runs, and ExecCtx::stats sees nothing, once the device is
// latched.

// Runs a layer from `start_unit` to completion. Preconditions for
// start_unit > 0: the output buffer holds the committed results of units
// < start_unit (guaranteed, it is FRAM) and — for Dense — the caller has
// restored the acc32 partials into SRAM (TAILS from its parity slots,
// FLEX from its checkpoint).
void run_layer(ExecCtx& ctx, std::size_t start_unit, const UnitHooks& hooks);

// ---- fine-grained BCM control (FLEX) --------------------------------------

// Stage machine of Algorithm 1 within one (bi, bj) block; the 3 control
// bits of Fig. 6 encode exactly this progression.
enum class BcmStage : std::uint8_t {
  kLoad = 0,  // DMA w,x blocks to SRAM + complexify
  kFftX = 1,
  kFftW = 2,
  kMpy = 3,
  kIfft = 4,
  kAcc = 5,   // extract real parts, fold into the row accumulator
};

struct BcmState {
  std::size_t block = 0;  // linear bi * bq + bj
  BcmStage stage = BcmStage::kLoad;
  int exp_x = 0;  // FFT scaling exponents gathered so far (valid per stage)
  int exp_w = 0;
  int exp_p = 0;
};

class BcmObserver {
 public:
  virtual ~BcmObserver() = default;
  // After a stage completes; `st` describes the NEXT stage to run. SRAM
  // buffers (ctx.cm.sram) hold the live intermediates.
  virtual void on_stage(ExecCtx& ctx, const BcmState& st) { (void)ctx; (void)st; }
  // After block `block`'s contribution is folded into the accumulator.
  virtual void on_block_done(ExecCtx& ctx, std::size_t block) { (void)ctx; (void)block; }
  // After output row `bi` is narrowed and committed to FRAM.
  virtual void on_row_committed(ExecCtx& ctx, std::size_t bi) { (void)ctx; (void)bi; }
};

// Runs the BCM layer from `st` to completion. Preconditions for resuming
// beyond kLoad: SRAM holds the restored intermediates (fft_x/fft_w buffers,
// accumulator row) matching `st` — FLEX restores them from its checkpoint.
// For st.stage == kLoad with st.block at a row boundary, the accumulator is
// zeroed internally.
void run_bcm(ExecCtx& ctx, BcmState st, BcmObserver* obs);

// ---- tile-granular execution (the "tile" runtime, core/flex/tile.cpp) -----

// Sub-layer progress cursor: one output element's reduction is split into
// tiles of `tile_elems` MACs walked through the LayerPlan gather tables
// (the natural seam — conv operands are addressed by w_gather/x_gather
// subranges, FRAM-direct, no feature-map staging). `acc` carries the
// partial sum across tiles; for Dense it holds the guard-shifted 32-bit
// accumulator, for conv the exact 64-bit one. The element-wise math is
// SONIC's exactly (the same gather walk, output finish and element
// bodies), so outputs are bit-identical across the two runtimes.
struct TileCursor {
  std::uint32_t layer = 0;
  std::uint32_t outer = 0;  // conv output pixel / dense neuron / cpu block
  std::uint32_t tile = 0;   // reduction tile within the element
  std::int64_t acc = 0;     // partial accumulator across committed tiles
};

// Tile-commits for one layer / the whole model at tile size `tile_elems`:
// outer elements x reduction tiles per element (CPU layers commit per
// element block; BcmDense is unsupported and counts 0).
std::size_t tile_layer_units(const CompiledModel& cm, std::size_t layer,
                             std::size_t tile_elems);
std::size_t tile_total_units(const CompiledModel& cm, std::size_t tile_elems);

// Executes exactly one reduction tile at `cur` and advances the cursor —
// to the next tile, the next outer element, or (when the layer's last
// element finishes) to (layer+1, 0, 0). A tile that browns out leaves the
// cursor where it was and returns false. Output-word writes happen only on
// an element's final tile and are idempotent (the activation ping-pong
// guarantees the input words survive re-execution), so replaying a tile
// whose cursor commit tore reproduces bit-identical state. Returns true
// when the layer is complete.
bool run_tile(ExecCtx& ctx, TileCursor& cur, std::size_t tile_elems);

// ---- scalar element paths (shared with the CPU runtimes) -----------------

// Element `e` of a ReLU, Flatten or 2x2 MaxPool layer through the real
// ops: its FRAM input read(s), its ALU ops, its FRAM output write. SONIC
// and TILE run every element layer through it, ACE its MaxPool.
void run_element(dev::Device& dev, const quant::QLayer& q, dev::Addr in, dev::Addr out,
                 std::size_t e);

// A scalar conv/Dense output's finish: four ALU ops, the narrowing of the
// exact accumulator by `rshift`, the bias word `b_base + f` when the layer
// has biases, and the write of the output word `dst`.
void finish_output(dev::Device& dev, const quant::QLayer& q, dev::Addr b_base, std::size_t f,
                   std::int64_t acc, int rshift, dev::Addr dst);

// ---- SRAM 32/64-bit accumulator helpers (shared with runtimes) ------------

// 32-bit value across two q15 words (lo, hi), costed device accesses.
std::int32_t read_acc32(dev::Device& dev, dev::MemKind mem, dev::Addr base, std::size_t idx);
void write_acc32(dev::Device& dev, dev::MemKind mem, dev::Addr base, std::size_t idx,
                 std::int32_t v);

// 64-bit value across four q15 words, costed device accesses.
std::int64_t read_acc64(dev::Device& dev, dev::MemKind mem, dev::Addr base, std::size_t idx);
void write_acc64(dev::Device& dev, dev::MemKind mem, dev::Addr base, std::size_t idx,
                 std::int64_t v);

}  // namespace ehdnn::ace
