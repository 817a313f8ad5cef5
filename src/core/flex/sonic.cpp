// SonicPolicy: SONIC-style software-only intermittent inference
// (Gobieski et al., ASPLOS'19), re-implemented on the ehdnn device model.
//
// Execution is element-wise on the CPU — no LEA, no DMA — and progress is
// continuously committed to FRAM ("loop continuation"):
//   ctrl[0] = layer, ctrl[1] = outer index, ctrl[2] = inner tile.
// Dense accumulators are read-modify-write across tiles, which is the
// classic intermittent W-A-R hazard; SONIC's loop-ordered buffering is
// modelled with two FRAM parity slots: the accumulator state after tile t
// lives in slot[(t+1) & 1], so re-executing tile t after a failure reads
// the untouched slot[t & 1] and the redo is idempotent.
//
// Commit-order discipline (inner index first, then outer, then layer)
// makes every multi-word control transition safe to tear.
//
// A conv output pixel is one unit: its whole reduction walks the layer's
// gather tables, as the tile runtime's tiles do, with the pixel's filter
// and window from ace::conv_geom (a Conv1D layer is a Conv2D with one
// output row). SONIC runs dense models, whose tables cover every
// (channel, kernel position) in the weights' order. Every conv and Dense
// output ends in ace::finish_output and every element-layer element is
// ace::run_element, the bodies the tile runtime runs too.

#include <algorithm>

#include "core/flex/executor.h"
#include "util/check.h"
#include "util/math.h"

namespace ehdnn::flex {

namespace {

using dev::Addr;
using dev::MemKind;
using fx::q15_t;
using quant::QKind;
using quant::QLayer;

constexpr std::size_t kTile = 16;      // dense inner commit granularity
constexpr std::size_t kCpuTile = 16;   // element layers commit granularity

class SonicPolicy : public RuntimePolicy {
 public:
  long units_total(const ace::CompiledModel& cm) const override {
    return static_cast<long>(sonic_units(cm));
  }

  void on_boot(StepContext& ctx, bool fresh) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    if (fresh) {
      load_input(dev, cm, ctx.input);
      // Fresh inference: reset the loop-continuation cursor.
      dev.write(MemKind::kFram, cm.ctrl_base + 2, 0);
      dev.write(MemKind::kFram, cm.ctrl_base + 1, 0);
      dev.write(MemKind::kFram, cm.ctrl_base + 0, 0);
    }
    // Restore the cursor (three cheap FRAM reads at boot).
    layer_ = static_cast<std::uint16_t>(dev.read(MemKind::kFram, cm.ctrl_base + 0));
    outer_ = static_cast<std::uint16_t>(dev.read(MemKind::kFram, cm.ctrl_base + 1));
    tile_ = static_cast<std::uint16_t>(dev.read(MemKind::kFram, cm.ctrl_base + 2));
  }

  bool step(StepContext& ctx) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    run_sonic_layer(ctx, layer_, outer_, tile_);
    if (dev.browned_out()) return false;
    outer_ = 0;
    tile_ = 0;
    // Layer transition (inner-first commit order).
    dev.notify_supply(dev::SupplyEvent::kCommitBegin);
    dev.write(MemKind::kFram, cm.ctrl_base + 2, 0);
    dev.write(MemKind::kFram, cm.ctrl_base + 1, 0);
    dev.write(MemKind::kFram, cm.ctrl_base + 0, static_cast<q15_t>(layer_ + 1));
    if (dev.browned_out()) return false;
    dev.notify_supply(dev::SupplyEvent::kCommitEnd);
    return ++layer_ == cm.model.layers.size();
  }

  // Inner-tile commit: the only per-unit event SONIC has; progress_commits
  // bookkeeping rides on the shared on_commit hook.
  void on_commit(StepContext& ctx, std::size_t unit) override {
    RuntimePolicy::on_commit(ctx, unit);
    ++ctx.st.progress_commits;
  }

 private:
  static std::size_t sonic_units(const ace::CompiledModel& cm) {
    std::size_t n = 0;
    for (const auto& l : cm.model.layers) {
      switch (l.kind) {
        case QKind::kDense:
          n += l.out_ch * div_ceil(l.in_ch, kTile);
          break;
        case QKind::kConv2D:
        case QKind::kConv1D:
          n += l.out_size();
          break;
        default:
          n += div_ceil(l.out_size(), kCpuTile);
      }
    }
    return n;
  }

  // The commits are SONIC's unit boundaries. Each returns false, having
  // counted nothing, when the device browned out in the unit or in the
  // commit itself; the layer loops then return.
  bool commit_inner(StepContext& ctx, std::size_t tile) {
    dev::Device& dev = ctx.dev;
    dev.notify_supply(dev::SupplyEvent::kCommitBegin);
    dev.write(MemKind::kFram, ctx.cm.ctrl_base + 2, static_cast<q15_t>(tile));
    if (dev.browned_out()) return false;
    dev.notify_supply(dev::SupplyEvent::kCommitEnd);
    on_commit(ctx, tile);
    return true;
  }

  // Also counts the finished unit (an output element or element tile).
  bool commit_outer(StepContext& ctx, std::size_t outer) {
    dev::Device& dev = ctx.dev;
    dev.notify_supply(dev::SupplyEvent::kCommitBegin);
    dev.write(MemKind::kFram, ctx.cm.ctrl_base + 2, 0);
    dev.write(MemKind::kFram, ctx.cm.ctrl_base + 1, static_cast<q15_t>(outer));
    if (dev.browned_out()) return false;
    dev.notify_supply(dev::SupplyEvent::kCommitEnd);
    ++ctx.st.progress_commits;
    ++ctx.st.units_executed;
    return true;
  }

  // One SONIC MAC through the real ops: both operands read from FRAM,
  // the MPY32 multiply, two address-advance ops. The layer loops charge
  // their MACs through charge runs (Device::charge_loop) and compute the
  // products from the FRAM words afterwards; this is the runs' per-op
  // fallback and, under set_bulk_enabled(false), which refuses every run,
  // their test oracle (tests/charge_sequence_test.cpp).
  static void mac_per_op(dev::Device& dev, Addr x, Addr w) {
    dev.read(MemKind::kFram, x);
    dev.read(MemKind::kFram, w);
    dev.cpu_mac_cycles();
    dev.cpu_ops(2);
  }

  void run_sonic_layer(StepContext& ctx, std::size_t l, std::size_t outer0,
                       std::size_t tile0) {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    const QLayer& q = cm.model.layers[l];
    const Addr in = cm.act_in(l);
    const Addr out = cm.act_out(l);
    const Addr wb = cm.images[l].w_base;
    const Addr bb = cm.images[l].b_base;
    // One MAC's draws: the operand reads, the MPY32 multiply, the two
    // address-advance ops (mac_per_op's order).
    const dev::ChargePattern mac{dev.read_cost(MemKind::kFram), dev.read_cost(MemKind::kFram),
                                 dev.mac_cost(), dev.cpu_ops_cost(2)};

    switch (q.kind) {
      case QKind::kDense: {
        const std::size_t nin = q.in_ch;
        const std::size_t ntiles = div_ceil(nin, kTile);
        const int guard = quant::dense_guard_shift(nin);
        const int rshift = ace::acc_rshift(q) - guard;
        for (std::size_t o = outer0; o < q.out_ch; ++o) {
          for (std::size_t t = (o == outer0 ? tile0 : 0); t < ntiles; ++t) {
            // Accumulator state before tile t lives in parity slot [t & 1].
            std::int32_t acc =
                t == 0 ? 0 : ace::read_acc32(dev, MemKind::kFram, cm.nv_acc_base, t & 1);
            const std::size_t lo = t * kTile;
            const std::size_t n = std::min(lo + kTile, nin) - lo;
            const Addr xa = in + lo;
            const Addr wa = wb + o * nin + lo;
            dev.charge_loop(mac, n, [&](std::size_t i) { mac_per_op(dev, xa + i, wa + i); });
            const auto xs = dev.fram().view(xa, n);
            const auto ws = dev.fram().view(wa, n);
            for (std::size_t i = 0; i < n; ++i) {
              acc += static_cast<std::int32_t>(fx::mul_q30(xs[i], ws[i]) >> guard);
            }
            ace::write_acc32(dev, MemKind::kFram, cm.nv_acc_base, (t + 1) & 1, acc);
            if (t + 1 == ntiles) {
              // Finish the neuron before the cursor moves past it.
              ace::finish_output(dev, q, bb, o, acc, rshift, out + o);
              if (!commit_outer(ctx, o + 1)) return;
            } else if (!commit_inner(ctx, t + 1)) {
              return;
            }
          }
        }
        break;
      }

      case QKind::kConv2D:
      case QKind::kConv1D: {
        // One output pixel is one unit: its whole reduction, walked through
        // the layer's gather tables (a dense model's tables cover every
        // (channel, kernel position) in order), then the output word.
        const ace::LayerPlan& lp = cm.plans[l];
        const ace::ConvGeom g = ace::conv_geom(q);
        const int rshift = ace::acc_rshift(q);
        for (std::size_t px = outer0; px < q.out_size(); ++px) {
          const std::size_t f = g.filter(px);
          const Addr xa = in + g.window(px);
          const Addr wa = wb + f * g.filter_words;
          dev.charge_loop(mac, lp.w_gather.size(), [&](std::size_t m) {
            mac_per_op(dev, xa + lp.x_gather[m], wa + lp.w_gather[m]);
          });
          const auto xs = dev.fram().view(xa, lp.x_span);
          const auto ws = dev.fram().view(wa, lp.w_span);
          std::int64_t acc = 0;
          for (std::size_t m = 0; m < lp.w_gather.size(); ++m) {
            acc += fx::mul_q30(xs[lp.x_gather[m]], ws[lp.w_gather[m]]);
          }
          ace::finish_output(dev, q, bb, f, acc, rshift, out + px);
          if (!commit_outer(ctx, px + 1)) return;
        }
        break;
      }

      case QKind::kReLU:
      case QKind::kFlatten:
      case QKind::kMaxPool2D: {
        const std::size_t n = q.out_size();
        const std::size_t tiles = div_ceil(n, kCpuTile);
        for (std::size_t t = outer0; t < tiles; ++t) {
          const std::size_t lo = t * kCpuTile;
          const std::size_t hi = std::min(lo + kCpuTile, n);
          for (std::size_t e = lo; e < hi; ++e) ace::run_element(dev, q, in, out, e);
          if (!commit_outer(ctx, t + 1)) return;
        }
        break;
      }

      case QKind::kBcmDense:
        fail("SONIC has no BCM support (run it on the dense model)");
    }
  }

  std::size_t layer_ = 0;
  std::size_t outer_ = 0;
  std::size_t tile_ = 0;
};

}  // namespace

std::unique_ptr<RuntimePolicy> make_sonic_policy() { return std::make_unique<SonicPolicy>(); }

double sonic_worst_commit_energy(const ace::CompiledModel& cm, const dev::CostModel& cost) {
  // Scalar FRAM word traffic (SONIC's kernels are all CPU-addressed) and
  // the MPY32 MAC with its two address-advance ops, matching the per-MAC
  // accounting in run_sonic_layer above.
  const double word_r = cost.e_fram_read + cost.seconds(cost.cycles_fram_word) * cost.p_cpu_active;
  const double word_w = cost.e_fram_write + cost.seconds(cost.cycles_fram_word) * cost.p_cpu_active;
  const double mac =
      cost.seconds(cost.cycles_cpu_mac + 2.0 * cost.cycles_cpu_op) * cost.p_cpu_active;
  double worst = 0.0;
  for (std::size_t l = 0; l < cm.model.layers.size(); ++l) {
    const quant::QLayer& q = cm.model.layers[l];
    double unit = 0.0;
    switch (q.kind) {
      case QKind::kDense:
        // One inner tile: kTile MACs (x + w reads each) + acc slot write.
        unit = static_cast<double>(kTile) * (2.0 * word_r + mac) + 4.0 * word_w;
        break;
      case QKind::kConv2D:
      case QKind::kConv1D:
        // One output element: the whole reduction, then the output write.
        unit = static_cast<double>(cm.plans[l].w_gather.size()) * (2.0 * word_r + mac) + word_w;
        break;
      default:
        // Element layers commit in kCpuTile blocks of read-op-write.
        unit = static_cast<double>(kCpuTile) * (word_r + word_w);
        break;
    }
    worst = std::max(worst, unit);
  }
  return worst;
}

}  // namespace ehdnn::flex
