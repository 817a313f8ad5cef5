#include "core/ace/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dsp/circulant.h"
#include "util/check.h"
#include "util/math.h"

namespace ehdnn::ace {

namespace {

using dev::Addr;
using dev::MemKind;
using fx::q15_t;
using quant::QKind;
using quant::QLayer;

constexpr std::size_t kCpuUnit = 64;  // element block for CPU-direct layers

using Span = std::span<fx::q15_t>;

// Effective arena for one kernel run: the caller's cross-layer arena when
// provided, else a run-local fallback (allocations then amortize across
// the units of this run only).
struct ArenaRef {
  ScratchArena fallback;
  ScratchArena& ar;
  explicit ArenaRef(const ExecCtx& ctx) : ar(ctx.arena != nullptr ? *ctx.arena : fallback) {}
  ScratchArena* operator->() { return &ar; }
};

// 32/64-bit accumulator packing over host-side word images, mirroring the
// device-resident layouts of read/write_acc32/64 below.
std::int32_t unpack_acc32(std::span<const q15_t> w, std::size_t idx) {
  const auto lo = static_cast<std::uint16_t>(w[2 * idx]);
  const auto hi = static_cast<std::uint16_t>(w[2 * idx + 1]);
  return static_cast<std::int32_t>((static_cast<std::uint32_t>(hi) << 16) | lo);
}

std::int64_t unpack_acc64(std::span<const q15_t> w, std::size_t idx) {
  std::uint64_t u = 0;
  for (int b = 3; b >= 0; --b) {
    u = (u << 16) | static_cast<std::uint16_t>(w[4 * idx + b]);
  }
  return static_cast<std::int64_t>(u);
}

void pack_acc64(Span w, std::size_t idx, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int b = 0; b < 4; ++b) {
    w[4 * idx + b] = static_cast<q15_t>(u & 0xffff);
    u >>= 16;
  }
}

// ------------------------------------------------------- conv window rows

// The conv kernel's per-pixel loop, charged by output row. On the device
// each output pixel is one window gather plus one LEA MAC, and the model
// charges, in order: cpu_ops(2g) for the gather loop, a g-word SRAM
// gather read, a g-word write of the window into win_vec, and the MAC of
// win_vec against kern_vec. The kernel is stride 1, so the windows of
// one row start at consecutive staged-input words.
//
// run() charges the row's pixels as one charge loop
// (Device::charge_loop) of those four draws, with pixel_per_op() — the
// pixel through its real ops — as the fallback wherever a run stops
// short, and convolves the whole row on the host, straight from the
// staged input and the gathered kernel in SRAM. That is exact: every
// product fits 32 bits and the sums are 64-bit, so any order gives the
// MAC's value, and nothing in the row writes the input or the kernel. The
// SRAM window buffer the runs skip writing is rewritten before a row that
// ends normally exits; after a brown-out mid-row it may differ from the
// per-op path's, but only until reboot() scrambles it.
class WindowRow {
 public:
  // `gbuf` is the kernel's window staging buffer, one word per gather
  // offset.
  WindowRow(ExecCtx& ctx, ScratchArena& ar, Span gbuf)
      : dv_(ctx.dev), sp_(ctx.cm.sram), lp_(ctx.plan()), g_(gbuf.size()), gbuf_(gbuf),
        arena_(ar),
        pixel_{dv_.cpu_ops_cost(2.0 * static_cast<double>(g_)),
               dv_.block_read_cost(MemKind::kSram, g_), dv_.block_write_cost(MemKind::kSram, g_),
               dv_.lea_mac_cost(g_)} {
    check(lp_.x_gather.size() == g_, "conv: window gather table / buffer mismatch");
  }

  // Charges the `n` windows starting at SRAM word `first` and returns
  // their accumulators, one per pixel whose charges completed: all `n`
  // unless the device browned out in the row.
  std::span<const std::int64_t> run(Addr first, std::size_t n) {
    const std::span<std::int64_t> acc = ScratchArena::need(arena_.row_acc, n);
    std::fill(acc.begin(), acc.end(), std::int64_t{0});
    const auto x = dv_.sram().view(first, n - 1 + lp_.x_span);
    const auto k = dv_.sram().view(sp_.kern_vec, g_);
    for (std::size_t e = 0; e < g_; ++e) {
      const q15_t w = k[e];
      const q15_t* xe = x.data() + lp_.x_gather[e];
      for (std::size_t p = 0; p < n; ++p) acc[p] += fx::mul_q30(xe[p], w);
    }
    const std::size_t done =
        dv_.charge_loop(pixel_, n, [&](std::size_t p) { pixel_per_op(first + p, acc[p]); });
    if (done == n) {
      // A row that exits normally leaves its last window in win_vec, as
      // the per-op loop does.
      gather_window(first + n - 1, dv_.sram().mut_view(sp_.win_vec, g_));
    }
    return acc.first(done);
  }

 private:
  // One pixel through the real ops: the charge runs' per-op fallback
  // and, under set_bulk_enabled(false), which refuses every run, their
  // test oracle (tests/charge_sequence_test.cpp).
  void pixel_per_op(Addr win, [[maybe_unused]] std::int64_t want) {
    dv_.cpu_ops(2.0 * static_cast<double>(g_));
    dv_.read_gather(MemKind::kSram, win, lp_.x_gather, lp_.x_span, gbuf_,
                    /*offsets_in_span=*/true);
    dv_.write_block(MemKind::kSram, sp_.win_vec, gbuf_);
    [[maybe_unused]] const std::int64_t acc = dv_.lea_mac(sp_.win_vec, sp_.kern_vec, g_);
    assert(dv_.browned_out() || acc == want);
  }

  // The window's effect alone (no charge): out[e] = sram[win + x_gather[e]].
  void gather_window(Addr win, Span out) {
    const auto src = dv_.sram().view(win, lp_.x_span);
    for (std::size_t e = 0; e < g_; ++e) out[e] = src[lp_.x_gather[e]];
  }

  dev::Device& dv_;
  const SramPlan& sp_;
  const LayerPlan& lp_;
  const std::size_t g_;
  const Span gbuf_;
  ScratchArena& arena_;
  const dev::ChargePattern pixel_;
};

// ---------------------------------------------------------------- conv

void run_conv(ExecCtx& ctx, std::size_t start_unit, const UnitHooks& hooks) {
  dev::Device& dv = ctx.dev;
  const QLayer& q = ctx.q();
  const SramPlan& sp = ctx.cm.sram;
  const LayerPlan& lp = ctx.plan();
  ArenaRef ar(ctx);
  const ConvGeom g = conv_geom(q);
  const std::size_t gather = lp.w_gather.size();
  const int rshift = acc_rshift(q);

  // Stage the whole input feature map in SRAM (acceleration-aware
  // dataflow: one bulk DMA instead of per-window FRAM traffic).
  check(q.in_size() <= sp.input_stage_words, "conv: input stage overflow");
  move_words(dv, MemKind::kFram, ctx.in_addr, MemKind::kSram, sp.input_stage, q.in_size());

  const Span gbuf = ScratchArena::need(ar->gather, gather);
  const Span rowbuf = ScratchArena::need(ar->row, g.cols);
  WindowRow row(ctx, ar.ar, gbuf);

  std::size_t cur_f = static_cast<std::size_t>(-1);
  q15_t bias_f = 0;
  const std::size_t units = g.filters * g.rows;
  for (std::size_t unit = start_unit; unit < units; ++unit) {
    if (dv.browned_out()) return;  // in the staging DMA or the last commit hook
    if (hooks.boundary) hooks.boundary(unit);
    const std::size_t f = unit / g.rows;
    const std::size_t i = unit % g.rows;

    if (f != cur_f) {
      // Gather filter f's live weights into a contiguous SRAM vector: one
      // LEA MAC then covers the whole kernel (Fig. 4).
      dv.cpu_ops(2.0 * static_cast<double>(gather));
      dv.read_gather(MemKind::kFram, ctx.img().w_base + f * g.filter_words, lp.w_gather,
                     lp.w_span, gbuf, /*offsets_in_span=*/true);
      dv.write_block(MemKind::kSram, sp.kern_vec, gbuf);
      bias_f = q.bias.empty() ? q15_t{0} : dv.read(MemKind::kFram, ctx.img().b_base + f);
      cur_f = f;
    }
    if (dv.browned_out()) return;

    // Window gather (SRAM -> SRAM, pruned positions skipped) + LEA MAC
    // per output pixel. ctx.stats sees only the pixels charged before a
    // brown-out.
    const auto accs = row.run(sp.input_stage + i * g.in_row, g.cols);
    for (std::size_t j = 0; j < accs.size(); ++j) {
      q15_t v = fx::narrow_q30(accs[j], rshift, ctx.stats);
      if (!q.bias.empty()) v = fx::add_sat(v, bias_f, ctx.stats);
      rowbuf[j] = v;
    }
    if (dv.browned_out()) return;
    dv.cpu_ops(4.0 * static_cast<double>(g.cols));  // narrow + bias + store setup
    dv.write_block(MemKind::kSram, sp.row_stage, rowbuf);

    // Bulk-commit the finished output row.
    move_words(dv, MemKind::kSram, sp.row_stage, MemKind::kFram,
               ctx.out_addr + (f * g.rows + i) * g.cols, g.cols);
    if (dv.browned_out()) return;
    if (hooks.committed) hooks.committed(unit);
  }
}

// ---------------------------------------------------------------- Dense

void run_dense(ExecCtx& ctx, std::size_t start_unit, const UnitHooks& hooks) {
  dev::Device& dv = ctx.dev;
  const QLayer& q = ctx.q();
  const SramPlan& sp = ctx.cm.sram;
  const std::size_t in = q.in_ch, out = q.out_ch;
  const std::size_t chunks = div_ceil(in, quant::kDenseChunk);
  const std::size_t nblocks = dense_neuron_blocks(q);
  const int guard = quant::dense_guard_shift(in);
  const int rshift = acc_rshift(q) - guard;

  ArenaRef ar(ctx);

  if (start_unit == 0) {
    const Span zeros = ScratchArena::need(ar->acc, 2 * out);
    std::fill(zeros.begin(), zeros.end(), q15_t{0});
    dv.write_block(MemKind::kSram, sp.acc32, zeros);
  }
  // start_unit > 0 contract: caller restored acc32 such that neurons in
  // blocks < (start_unit % nblocks) have chunks [0, start_unit/nblocks]
  // folded and the rest have chunks [0, start_unit/nblocks) folded.

  const std::size_t c0 = start_unit / nblocks;
  for (std::size_t c = c0; c < chunks; ++c) {
    const std::size_t base = c * quant::kDenseChunk;
    const std::size_t len = std::min(quant::kDenseChunk, in - base);
    move_words(dv, MemKind::kFram, ctx.in_addr + base, MemKind::kSram, sp.input_stage, len);
    const std::size_t nb0 = c == c0 ? start_unit % nblocks : 0;
    for (std::size_t nb = nb0; nb < nblocks; ++nb) {
      if (dv.browned_out()) return;  // in the staging DMA or the last commit hook
      const std::size_t unit = c * nblocks + nb;
      if (hooks.boundary) hooks.boundary(unit);
      const std::size_t o_lo = nb * kDenseNeuronBlock;
      const std::size_t o_hi = std::min(o_lo + kDenseNeuronBlock, out);
      for (std::size_t o = o_lo; o < o_hi; ++o) {
        move_words(dv, MemKind::kFram, ctx.img().w_base + o * in + base, MemKind::kSram,
                   sp.kern_vec, len);
        const std::int64_t chunk = dv.lea_mac(sp.input_stage, sp.kern_vec, len);
        dv.cpu_ops(6);
        const std::int64_t folded =
            static_cast<std::int64_t>(read_acc32(dv, MemKind::kSram, sp.acc32, o)) +
            (chunk >> guard);  // fits 32 bits by guard construction
        write_acc32(dv, MemKind::kSram, sp.acc32, o, static_cast<std::int32_t>(folded));
      }
      if (dv.browned_out()) return;
      if (hooks.committed) hooks.committed(unit);
    }
  }

  // Narrow all neurons and bulk-commit.
  const Span accbuf = ScratchArena::need(ar->acc, 2 * out);
  dv.read_block(MemKind::kSram, sp.acc32, accbuf);
  const Span rowbuf = ScratchArena::need(ar->row, out);
  std::span<const q15_t> biasbuf;
  if (!q.bias.empty()) {
    const Span bb = ScratchArena::need(ar->bias, out);
    dv.read_block(MemKind::kFram, ctx.img().b_base, bb);
    biasbuf = bb;
  }
  dv.cpu_ops(4.0 * static_cast<double>(out));
  if (dv.browned_out()) return;  // before ctx.stats sees the narrowing
  for (std::size_t o = 0; o < out; ++o) {
    q15_t v = fx::narrow_q30(static_cast<std::int64_t>(unpack_acc32(accbuf, o)), rshift,
                             ctx.stats);
    if (!biasbuf.empty()) v = fx::add_sat(v, biasbuf[o], ctx.stats);
    rowbuf[o] = v;
  }
  dv.write_block(MemKind::kSram, sp.row_stage, rowbuf);
  move_words(dv, MemKind::kSram, sp.row_stage, MemKind::kFram, ctx.out_addr, out);
}

// ---------------------------------------------------------------- CPU layers

void run_cpu_layer(ExecCtx& ctx, std::size_t start_unit, const UnitHooks& hooks) {
  dev::Device& dv = ctx.dev;
  const QLayer& q = ctx.q();
  const std::size_t n = q.out_size();
  const std::size_t units = div_ceil(n, kCpuUnit);
  ArenaRef ar(ctx);

  for (std::size_t u = start_unit; u < units; ++u) {
    if (dv.browned_out()) return;  // in the last commit hook
    if (hooks.boundary) hooks.boundary(u);
    const std::size_t lo = u * kCpuUnit;
    const std::size_t hi = std::min(lo + kCpuUnit, n);
    switch (q.kind) {
      case QKind::kReLU: {
        const Span buf = ScratchArena::need(ar->row, hi - lo);
        dv.read_block(MemKind::kFram, ctx.in_addr + lo, buf);
        dv.cpu_ops(2.0 * static_cast<double>(hi - lo));
        for (auto& v : buf) v = std::max<q15_t>(v, 0);
        dv.write_block(MemKind::kFram, ctx.out_addr + lo, buf);
        break;
      }
      case QKind::kMaxPool2D:
        for (std::size_t e = lo; e < hi; ++e) {
          run_element(dv, q, ctx.in_addr, ctx.out_addr, e);
        }
        break;
      case QKind::kFlatten:
        move_words(dv, MemKind::kFram, ctx.in_addr + lo, MemKind::kFram, ctx.out_addr + lo,
                   hi - lo);
        break;
      default:
        fail("run_cpu_layer: not a CPU layer");
    }
    if (dv.browned_out()) return;
    if (hooks.committed) hooks.committed(u);
  }
}

}  // namespace

// ---------------------------------------------------------------- BCM (Alg. 1)

void run_bcm(ExecCtx& ctx, BcmState st, BcmObserver* obs) {
  dev::Device& dv = ctx.dev;
  const QLayer& q = ctx.q();
  const SramPlan& sp = ctx.cm.sram;
  const LayerPlan& lp = ctx.plan();
  ArenaRef ar(ctx);
  const std::size_t k = q.k;
  const int lg = ilog2(k);
  const std::size_t in = q.in_size();
  const int row_rshift = lg + q.out_exp - q.w_exp - q.in_exp;

  BcmObserver null_obs;
  if (obs == nullptr) obs = &null_obs;

  // Every observer call is a unit boundary: the kernel tests the
  // brown-out latch before each one and returns, so no observer runs on
  // a dead device.
  const std::size_t start_bi = st.block / q.bq;
  for (std::size_t bi = start_bi; bi < q.bp; ++bi) {
    const bool resumed_row = (bi == start_bi);
    const std::size_t j0 = resumed_row ? st.block % q.bq : 0;

    // Fresh rows start with a zero accumulator; a resumed row relies on
    // the caller having restored it (or j0 == 0 && stage == kLoad, where
    // nothing has been accumulated yet).
    if (!resumed_row || (j0 == 0 && st.stage == BcmStage::kLoad)) {
      const Span zeros = ScratchArena::need(ar->acc, 4 * k);
      std::fill(zeros.begin(), zeros.end(), q15_t{0});
      dv.write_block(MemKind::kSram, sp.acc32, zeros);
    }

    for (std::size_t bj = j0; bj < q.bq; ++bj) {
      const std::size_t block = bi * q.bq + bj;
      const bool resumed_block = resumed_row && bj == j0;
      BcmStage stage = resumed_block ? st.stage : BcmStage::kLoad;
      int exp_x = resumed_block ? st.exp_x : 0;
      int exp_w = resumed_block ? st.exp_w : 0;
      int exp_p = resumed_block ? st.exp_p : 0;

      // Stage machine with fall-through (Fig. 6's b0-b2 control bits).
      if (stage == BcmStage::kLoad) {
        // x_j block (zero-padded tail), w_ij first column.
        const std::size_t base = bj * k;
        const std::size_t real = base < in ? std::min(k, in - base) : 0;
        if (real > 0) {
          move_words(dv, MemKind::kFram, ctx.in_addr + base, MemKind::kSram, sp.x_blk, real);
        }
        if (real < k) {
          const Span zeros = ScratchArena::need(ar->row, k - real);
          std::fill(zeros.begin(), zeros.end(), q15_t{0});
          dv.cpu_ops(1.0 * static_cast<double>(k - real));
          dv.write_block(MemKind::kSram, sp.x_blk + real, zeros);
        }
        move_words(dv, MemKind::kFram, ctx.img().w_base + block * k, MemKind::kSram, sp.w_blk,
                   k);
        // COMPLEX: interleave with zero imaginary parts (Algorithm 1 l.5-6).
        const Span blk = ScratchArena::need(ar->row, k);
        const Span inter = ScratchArena::need(ar->spect, 2 * k);
        dv.cpu_ops(2.0 * static_cast<double>(k));
        dv.read_block(MemKind::kSram, sp.x_blk, blk);
        for (std::size_t t = 0; t < k; ++t) {
          inter[2 * t] = blk[t];
          inter[2 * t + 1] = 0;
        }
        dv.write_block(MemKind::kSram, sp.fft_x, inter);
        dv.read_block(MemKind::kSram, sp.w_blk, blk);
        for (std::size_t t = 0; t < k; ++t) {
          inter[2 * t] = blk[t];
          inter[2 * t + 1] = 0;
        }
        dv.write_block(MemKind::kSram, sp.fft_w, inter);
        stage = BcmStage::kFftX;
        if (dv.browned_out()) return;
        obs->on_stage(ctx, {block, stage, exp_x, exp_w, exp_p});
      }
      if (stage == BcmStage::kFftX) {
        exp_x = dv.lea_fft(sp.fft_x, k, ctx.scaling, ctx.stats);
        stage = BcmStage::kFftW;
        if (dv.browned_out()) return;
        obs->on_stage(ctx, {block, stage, exp_x, exp_w, exp_p});
      }
      if (stage == BcmStage::kFftW) {
        exp_w = dv.lea_fft(sp.fft_w, k, ctx.scaling, ctx.stats);
        stage = BcmStage::kMpy;
        if (dv.browned_out()) return;
        obs->on_stage(ctx, {block, stage, exp_x, exp_w, exp_p});
      }
      if (stage == BcmStage::kMpy) {
        // BFP product guard (see dsp::product_guard): scan both spectra,
        // shift the louder one(s) so the complex multiply cannot saturate.
        if (ctx.scaling == dsp::FftScaling::kBlockFloat) {
          int mx = 0, mw = 0;
          const Span spec = ScratchArena::need(ar->spect, 2 * k);
          dv.cpu_ops(2.0 * static_cast<double>(2 * k));
          dv.read_block(MemKind::kSram, sp.fft_x, spec);
          for (const q15_t v : spec) mx = std::max(mx, std::abs(static_cast<int>(v)));
          dv.read_block(MemKind::kSram, sp.fft_w, spec);
          for (const q15_t v : spec) mw = std::max(mw, std::abs(static_cast<int>(v)));
          const dsp::GuardShifts g = dsp::product_guard(mw, mx);
          if (g.w > 0) {
            dv.lea_shift(sp.fft_w, sp.fft_w, 2 * k, -g.w);
            exp_w += g.w;
          }
          if (g.x > 0) {
            dv.lea_shift(sp.fft_x, sp.fft_x, 2 * k, -g.x);
            exp_x += g.x;
          }
        }
        dv.lea_cmul(sp.fft_x, sp.fft_w, sp.fft_w, k, ctx.stats);  // product -> fft_w
        stage = BcmStage::kIfft;
        if (dv.browned_out()) return;
        obs->on_stage(ctx, {block, stage, exp_x, exp_w, exp_p});
      }
      if (stage == BcmStage::kIfft) {
        exp_p = dv.lea_ifft(sp.fft_w, k, ctx.scaling, ctx.stats);
        stage = BcmStage::kAcc;
        if (dv.browned_out()) return;
        obs->on_stage(ctx, {block, stage, exp_x, exp_w, exp_p});
      }
      // kAcc: REAL extraction + fold into the row accumulator.
      {
        const int shift = exp_x + exp_w + exp_p + lg;
        check(shift >= 0, "run_bcm: negative aligned exponent");
        const Span re = ScratchArena::need(ar->row, k);
        dv.read_gather(MemKind::kSram, sp.fft_w, lp.real_gather, 2 * k, re,
                       /*offsets_in_span=*/true);
        const Span accbuf = ScratchArena::need(ar->acc, 4 * k);
        dv.read_block(MemKind::kSram, sp.acc32, accbuf);
        dv.cpu_ops(3.0 * static_cast<double>(k));
        for (std::size_t t = 0; t < k; ++t) {
          pack_acc64(accbuf, t,
                     unpack_acc64(accbuf, t) + (static_cast<std::int64_t>(re[t]) << shift));
        }
        dv.write_block(MemKind::kSram, sp.acc32, accbuf);
        if (dv.browned_out()) return;
        obs->on_block_done(ctx, block);
      }
    }

    // SCALE-UP + bias + commit of output block row bi (Algorithm 1 l.9).
    {
      const Span accbuf = ScratchArena::need(ar->acc, 4 * k);
      dv.read_block(MemKind::kSram, sp.acc32, accbuf);
      const Span rowbuf = ScratchArena::need(ar->row, k);
      std::span<const q15_t> biasbuf;
      if (!q.bias.empty()) {
        const Span bb = ScratchArena::need(ar->bias, k);
        dv.read_block(MemKind::kFram, ctx.img().b_base + bi * k, bb);
        biasbuf = bb;
      }
      dv.cpu_ops(4.0 * static_cast<double>(k));
      if (dv.browned_out()) return;  // before ctx.stats sees the narrowing
      for (std::size_t t = 0; t < k; ++t) {
        q15_t v = fx::narrow_q30(unpack_acc64(accbuf, t), row_rshift, ctx.stats);
        if (!biasbuf.empty()) v = fx::add_sat(v, biasbuf[t], ctx.stats);
        rowbuf[t] = v;
      }
      dv.write_block(MemKind::kSram, sp.row_stage, rowbuf);
    }
    move_words(dv, MemKind::kSram, sp.row_stage, MemKind::kFram, ctx.out_addr + bi * k, k);
    if (dv.browned_out()) return;
    obs->on_row_committed(ctx, bi);

    // Next row starts fresh.
    st = BcmState{(bi + 1) * q.bq, BcmStage::kLoad, 0, 0, 0};
  }
}

// ---------------------------------------------------------------- dispatch

std::size_t unit_count(const QLayer& l) {
  switch (l.kind) {
    case QKind::kConv2D:
    case QKind::kConv1D: {
      const ConvGeom g = conv_geom(l);
      return g.filters * g.rows;
    }
    case QKind::kDense:
      return div_ceil(l.in_ch, quant::kDenseChunk) * dense_neuron_blocks(l);
    case QKind::kBcmDense: return l.bp;  // committed rows
    case QKind::kMaxPool2D:
    case QKind::kReLU:
    case QKind::kFlatten: return div_ceil(l.out_size(), kCpuUnit);
  }
  fail("unit_count: unknown kind");
}

namespace {

// Adapter: expose BCM row commits as generic units. (Runtimes that need
// stage-level observation — FLEX — call run_bcm directly instead.)
class BcmUnitAdapter : public BcmObserver {
 public:
  explicit BcmUnitAdapter(const UnitHooks& hooks) : hooks_(hooks) {}
  void on_row_committed(ExecCtx&, std::size_t bi) override {
    if (hooks_.committed) hooks_.committed(bi);
  }

 private:
  const UnitHooks& hooks_;
};

}  // namespace

void run_layer(ExecCtx& ctx, std::size_t start_unit, const UnitHooks& hooks) {
  switch (ctx.q().kind) {
    case QKind::kConv2D:
    case QKind::kConv1D: run_conv(ctx, start_unit, hooks); return;
    case QKind::kDense: run_dense(ctx, start_unit, hooks); return;
    case QKind::kBcmDense: {
      BcmUnitAdapter adapter(hooks);
      run_bcm(ctx, BcmState{start_unit * ctx.q().bq, BcmStage::kLoad, 0, 0, 0}, &adapter);
      return;
    }
    case QKind::kMaxPool2D:
    case QKind::kReLU:
    case QKind::kFlatten: run_cpu_layer(ctx, start_unit, hooks); return;
  }
  fail("run_layer: unknown kind");
}

// ------------------------------------------------------- tile-granular paths

namespace {

// Reduction length of one output element under the tile runtime: the
// gather-table length for conv (live positions only — pruned positions
// carry zero weights, so skipping them is value-identical to SONIC's
// full walk), the input fan-in for Dense.
std::size_t tile_reduction_len(const CompiledModel& cm, std::size_t layer) {
  const QLayer& q = cm.model.layers[layer];
  switch (q.kind) {
    case QKind::kDense: return q.in_ch;
    case QKind::kConv2D:
    case QKind::kConv1D: return cm.plans[layer].w_gather.size();
    default: return 0;
  }
}

// One MAC over staged operands through the real ops. run_tile charges
// its MACs through charge runs (Device::charge_loop) and computes the
// products from the staged buffers afterwards; this is the runs' per-op
// fallback and, under set_bulk_enabled(false), which refuses every run,
// their test oracle (tests/charge_sequence_test.cpp).
void tile_mac_per_op(dev::Device& dv) {
  dv.cpu_mac_cycles();
  dv.cpu_ops(2);
}

// Advances past a finished outer element; true when the layer is done.
bool tile_advance_outer(TileCursor& cur, std::size_t outer_count) {
  cur.tile = 0;
  cur.acc = 0;
  if (++cur.outer == outer_count) {
    cur.outer = 0;
    ++cur.layer;
    return true;
  }
  return false;
}

}  // namespace

std::size_t tile_layer_units(const CompiledModel& cm, std::size_t layer,
                             std::size_t tile_elems) {
  const QLayer& q = cm.model.layers[layer];
  switch (q.kind) {
    case QKind::kDense:
      return q.out_ch * div_ceil(q.in_ch, tile_elems);
    case QKind::kConv2D:
    case QKind::kConv1D:
      return q.out_size() * div_ceil(tile_reduction_len(cm, layer), tile_elems);
    case QKind::kBcmDense:
      return 0;
    default:
      return div_ceil(q.out_size(), tile_elems);
  }
}

std::size_t tile_total_units(const CompiledModel& cm, std::size_t tile_elems) {
  std::size_t n = 0;
  for (std::size_t l = 0; l < cm.model.layers.size(); ++l) {
    n += tile_layer_units(cm, l, tile_elems);
  }
  return n;
}

bool run_tile(ExecCtx& ctx, TileCursor& cur, std::size_t tile_elems) {
  dev::Device& dv = ctx.dev;
  const QLayer& q = ctx.q();
  const LayerPlan& lp = ctx.plan();
  const Addr in = ctx.in_addr;
  const Addr out = ctx.out_addr;
  const Addr wb = ctx.img().w_base;
  const Addr bb = ctx.img().b_base;
  ArenaRef ar(ctx);
  // One MAC over the staged operands: the MPY32 multiply and two
  // address-advance ops (tile_mac_per_op's order).
  const dev::ChargePattern mac{dv.mac_cost(), dv.cpu_ops_cost(2)};

  switch (q.kind) {
    case QKind::kDense: {
      // SONIC's dense math at tile granularity: the guard shift keeps the
      // running 32-bit sum overflow-free, so the partial accumulator is
      // tile-size-independent and bit-identical to SONIC's.
      const std::size_t nin = q.in_ch;
      const std::size_t ntiles = div_ceil(nin, tile_elems);
      const int guard = quant::dense_guard_shift(nin);
      const int rshift = acc_rshift(q) - guard;
      const std::size_t o = cur.outer;
      const std::size_t lo = cur.tile * tile_elems;
      const std::size_t n = std::min(lo + tile_elems, nin) - lo;
      const Span xbuf = ScratchArena::need(ar->row, n);
      const Span wbuf = ScratchArena::need(ar->gather, n);
      dv.read_block(MemKind::kFram, in + lo, xbuf);
      dv.read_block(MemKind::kFram, wb + o * nin + lo, wbuf);
      dv.charge_loop(mac, n, [&](std::size_t) { tile_mac_per_op(dv); });
      auto acc = static_cast<std::int32_t>(cur.acc);
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<std::int32_t>(fx::mul_q30(xbuf[i], wbuf[i]) >> guard);
      }
      if (cur.tile + 1 == ntiles) {
        finish_output(dv, q, bb, o, acc, rshift, out + o);
        return !dv.browned_out() && tile_advance_outer(cur, q.out_ch);
      }
      if (dv.browned_out()) return false;
      ++cur.tile;
      cur.acc = acc;
      return false;
    }

    case QKind::kConv2D:
    case QKind::kConv1D: {
      // Operands come straight from FRAM through gather-table subranges —
      // the per-element cost matches SONIC's two scalar reads per MAC,
      // with one bounds check per tile instead of per word.
      const std::size_t red = tile_reduction_len(ctx.cm, ctx.layer);
      const std::size_t ntiles = div_ceil(red, tile_elems);
      const int rshift = acc_rshift(q);
      const ConvGeom g = conv_geom(q);
      const std::size_t px = cur.outer;
      const std::size_t f = g.filter(px);
      const std::size_t lo = cur.tile * tile_elems;
      const std::size_t n = std::min(lo + tile_elems, red) - lo;
      const Span xbuf = ScratchArena::need(ar->row, n);
      const Span wbuf = ScratchArena::need(ar->gather, n);
      const std::span<const std::uint32_t> xoff(lp.x_gather);
      const std::span<const std::uint32_t> woff(lp.w_gather);
      dv.read_gather(MemKind::kFram, in + g.window(px), xoff.subspan(lo, n), lp.x_span, xbuf,
                     /*offsets_in_span=*/true);
      dv.read_gather(MemKind::kFram, wb + f * g.filter_words, woff.subspan(lo, n), lp.w_span,
                     wbuf, /*offsets_in_span=*/true);
      dv.charge_loop(mac, n, [&](std::size_t) { tile_mac_per_op(dv); });
      std::int64_t acc = cur.acc;
      for (std::size_t e = 0; e < n; ++e) acc += fx::mul_q30(xbuf[e], wbuf[e]);
      if (cur.tile + 1 == ntiles) {
        finish_output(dv, q, bb, f, acc, rshift, out + px);
        return !dv.browned_out() && tile_advance_outer(cur, q.out_size());
      }
      if (dv.browned_out()) return false;
      ++cur.tile;
      cur.acc = acc;
      return false;
    }

    case QKind::kReLU:
    case QKind::kFlatten:
    case QKind::kMaxPool2D: {
      // Element layers: one tile is a block of tile_elems output elements
      // (sized by the spec, not a fixed 16 — a micro-capacitor burst must
      // cover one whole block).
      const std::size_t nelem = q.out_size();
      const std::size_t blocks = div_ceil(nelem, tile_elems);
      const std::size_t lo = cur.outer * tile_elems;
      const std::size_t hi = std::min(lo + tile_elems, nelem);
      for (std::size_t e = lo; e < hi; ++e) run_element(dv, q, in, out, e);
      return !dv.browned_out() && tile_advance_outer(cur, blocks);
    }

    case QKind::kBcmDense:
      fail("tile runtime has no BCM support (run it on the dense model)");
  }
  fail("run_tile: unknown kind");
}

// ---------------------------------------------------------------- scalar paths

void run_element(dev::Device& dv, const QLayer& q, Addr in, Addr out, std::size_t e) {
  q15_t v;
  if (q.kind == QKind::kMaxPool2D) {
    const std::size_t ih = q.in_shape[1], iw = q.in_shape[2];
    const std::size_t oh = q.out_shape[1], ow = q.out_shape[2];
    const std::size_t ch = e / (oh * ow);
    const std::size_t i = (e / ow) % oh;
    const std::size_t j = e % ow;
    v = fx::kQ15Min;
    for (std::size_t di = 0; di < 2; ++di) {
      for (std::size_t dj = 0; dj < 2; ++dj) {
        v = std::max(v,
                     dv.read(MemKind::kFram, in + (ch * ih + 2 * i + di) * iw + 2 * j + dj));
      }
    }
    dv.cpu_ops(5);
  } else {
    v = dv.read(MemKind::kFram, in + e);
    dv.cpu_ops(2);
    if (q.kind == QKind::kReLU) v = std::max<q15_t>(v, 0);
  }
  dv.write(MemKind::kFram, out + e, v);
}

void finish_output(dev::Device& dv, const QLayer& q, Addr b_base, std::size_t f,
                   std::int64_t acc, int rshift, Addr dst) {
  dv.cpu_ops(4);
  q15_t v = fx::narrow_q30(acc, rshift);
  if (!q.bias.empty()) v = fx::add_sat(v, dv.read(MemKind::kFram, b_base + f));
  dv.write(MemKind::kFram, dst, v);
}

// ---------------------------------------------------------------- acc helpers

std::int32_t read_acc32(dev::Device& dev, MemKind mem, Addr base, std::size_t idx) {
  const auto lo = static_cast<std::uint16_t>(dev.read(mem, base + 2 * idx));
  const auto hi = static_cast<std::uint16_t>(dev.read(mem, base + 2 * idx + 1));
  return static_cast<std::int32_t>((static_cast<std::uint32_t>(hi) << 16) | lo);
}

void write_acc32(dev::Device& dev, MemKind mem, Addr base, std::size_t idx, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  dev.write(mem, base + 2 * idx, static_cast<fx::q15_t>(u & 0xffff));
  dev.write(mem, base + 2 * idx + 1, static_cast<fx::q15_t>((u >> 16) & 0xffff));
}

std::int64_t read_acc64(dev::Device& dev, MemKind mem, Addr base, std::size_t idx) {
  std::uint64_t u = 0;
  for (int w = 3; w >= 0; --w) {
    u = (u << 16) | static_cast<std::uint16_t>(dev.read(mem, base + 4 * idx + w));
  }
  return static_cast<std::int64_t>(u);
}

void write_acc64(dev::Device& dev, MemKind mem, Addr base, std::size_t idx, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int w = 0; w < 4; ++w) {
    dev.write(mem, base + 4 * idx + w, static_cast<fx::q15_t>(u & 0xffff));
    u >>= 16;
  }
}

}  // namespace ehdnn::ace
