// TailsPolicy: TAILS-style intermittent inference — SONIC's loop
// continuation protocol, with the inner vector work offloaded to the LEA
// through DMA staging (Gobieski et al., ASPLOS'19, SSIII-C of this paper).
//
// Progress exists only at *unit* granularity (an output row, a dense
// chunk): the control cursor (layer, unit) is committed to FRAM after each
// unit, and dense-chunk accumulators are double-buffered in FRAM parity
// slots. What TAILS cannot do is resume inside a vector operation: the
// intermediates (x, w, y, y' of Fig. 6) live in SRAM and die with the
// power, so a failure mid-unit rolls execution back to the unit's start —
// the progress setback FLEX is designed to eliminate.
//
// Unlike the original TAILS, this implementation can also drive the
// FFT-based BCM layer (rolling back whole blocks on failure and paying a
// per-block accumulator commit), which is exactly the strawman the paper's
// Fig. 6 analyzes; bench/fig6 quantifies it against FLEX.

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

class TailsPolicy : public RuntimePolicy {
 public:
  void on_boot(StepContext& ctx, bool fresh) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    if (fresh) {
      load_input(dev, cm, ctx.input);
      dev.write(MemKind::kFram, cm.ctrl_base + 1, 0);
      dev.write(MemKind::kFram, cm.ctrl_base + 0, 0);
    }
    layer_ = static_cast<std::uint16_t>(dev.read(MemKind::kFram, cm.ctrl_base + 0));
    unit_ = static_cast<std::uint16_t>(dev.read(MemKind::kFram, cm.ctrl_base + 1));
  }

  bool step(StepContext& ctx) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    const std::size_t l = layer_;
    const QLayer& q = cm.model.layers[l];
    ace::ExecCtx ectx{dev, cm, l, cm.act_in(l), cm.act_out(l),
                      ctx.opts.scaling, ctx.opts.stats, &arena_};

    if (q.kind == QKind::kDense && unit_ > 0) {
      // Rebuild the accumulator from the chunk-parity slots. Commits
      // during chunk c land in slot[(c+1) & 1] block by block, so on
      // resume at (c0, nb0): neuron blocks < nb0 carry chunk c0's folds
      // (new slot) and blocks >= nb0 carry only chunks < c0 (old slot).
      const std::size_t nblocks = ace::dense_neuron_blocks(q);
      const std::size_t c0 = unit_ / nblocks;
      const std::size_t nb0 = unit_ % nblocks;
      const Addr slot_new = cm.nv_acc_base + ((c0 + 1) & 1) * cm.nv_acc_slot_words;
      const Addr slot_old = cm.nv_acc_base + (c0 & 1) * cm.nv_acc_slot_words;
      for (std::size_t nb = 0; nb < nblocks; ++nb) {
        const std::size_t o_lo = nb * ace::kDenseNeuronBlock;
        const std::size_t o_hi = std::min(o_lo + ace::kDenseNeuronBlock, q.out_ch);
        if (nb >= nb0 && c0 == 0) {
          // No chunk has folded into these blocks yet: fresh zeros (the
          // old slot would be a previous inference's leftovers).
          for (std::size_t o = o_lo; o < o_hi; ++o) {
            ace::write_acc32(dev, MemKind::kSram, cm.sram.acc32, o, 0);
          }
          continue;
        }
        const Addr src = (nb < nb0 ? slot_new : slot_old) + 2 * o_lo;
        ace::move_words(dev, MemKind::kFram, src, MemKind::kSram,
                        cm.sram.acc32 + 2 * o_lo, 2 * (o_hi - o_lo));
      }
    }

    ace::UnitHooks hooks;
    hooks.committed = [&](std::size_t u) { on_commit(ctx, u); };

    if (q.kind == QKind::kBcmDense) {
      run_tails_bcm(ectx, unit_, ctx.st);
    } else {
      ace::run_layer(ectx, unit_, hooks);
    }
    if (dev.browned_out()) return false;

    unit_ = 0;
    dev.notify_supply(dev::SupplyEvent::kCommitBegin);
    dev.write(MemKind::kFram, cm.ctrl_base + 1, 0);
    dev.write(MemKind::kFram, cm.ctrl_base + 0, static_cast<q15_t>(l + 1));
    if (dev.browned_out()) return false;
    dev.notify_supply(dev::SupplyEvent::kCommitEnd);
    return ++layer_ == cm.model.layers.size();
  }

  // Chunk-parity, block-granular accumulator commit (W-A-R safe: a torn
  // block write is re-read from the untouched old slot), then the cursor.
  void on_commit(StepContext& ctx, std::size_t unit) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    const QLayer& q = cm.model.layers[layer_];
    dev.notify_supply(dev::SupplyEvent::kCommitBegin);
    if (q.kind == QKind::kDense) {
      const std::size_t nblocks = ace::dense_neuron_blocks(q);
      const std::size_t c = unit / nblocks;
      const std::size_t nb = unit % nblocks;
      const std::size_t o_lo = nb * ace::kDenseNeuronBlock;
      const std::size_t o_hi = std::min(o_lo + ace::kDenseNeuronBlock, q.out_ch);
      const Addr slot = cm.nv_acc_base + ((c + 1) & 1) * cm.nv_acc_slot_words;
      ace::move_words(dev, MemKind::kSram, cm.sram.acc32 + 2 * o_lo, MemKind::kFram,
                      slot + 2 * o_lo, 2 * (o_hi - o_lo));
    }
    dev.write(MemKind::kFram, cm.ctrl_base + 1, static_cast<q15_t>(unit + 1));
    if (dev.browned_out()) return;
    dev.notify_supply(dev::SupplyEvent::kCommitEnd);
    ++ctx.st.progress_commits;
    ++ctx.st.units_executed;
  }

 private:
  // BCM under TAILS' protocol: progress per *block* (not per stage). The
  // accumulator row is parity-committed to FRAM after every block, and the
  // control cursor encodes the block index; a failure inside a block redoes
  // it from the DMA (Fig. 6 left). Cursor encoding: unit = block + 1 is
  // stored in ctrl[1]; row commits reset the block cursor implicitly
  // because block indices are global across rows.
  void run_tails_bcm(ace::ExecCtx& ctx, std::size_t start_unit, RunStats& st) {
    dev::Device& dv = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    const QLayer& q = ctx.q();
    const std::size_t k = q.k;

    if (start_unit > 0 && start_unit % q.bq != 0) {
      // Mid-row resume: restore the row accumulator committed after block
      // start_unit - 1 (it lives in parity slot [start_unit & 1]).
      const Addr slot = cm.nv_acc_base + (start_unit & 1) * cm.nv_acc_slot_words;
      ace::move_words(dv, MemKind::kFram, slot, MemKind::kSram, cm.sram.acc32, 4 * k);
    }

    // Commit discipline: after every block except a row's last, the
    // accumulator is parity-committed and the cursor advances; a row's
    // last block commits only once the row's *output* is in FRAM
    // (on_row_committed), so a failure in between rolls back exactly one
    // block — never skipping the row commit.
    struct Obs : ace::BcmObserver {
      RunStats& st;
      explicit Obs(RunStats& s) : st(s) {}
      void on_block_done(ace::ExecCtx& c, std::size_t block) override {
        const std::size_t kk = c.q().k;
        if ((block + 1) % c.q().bq == 0) return;  // deferred to the row commit
        c.dev.notify_supply(dev::SupplyEvent::kCommitBegin);
        const Addr slot = c.cm.nv_acc_base + ((block + 1) & 1) * c.cm.nv_acc_slot_words;
        ace::move_words(c.dev, MemKind::kSram, c.cm.sram.acc32, MemKind::kFram, slot, 4 * kk);
        c.dev.write(MemKind::kFram, c.cm.ctrl_base + 1, static_cast<q15_t>(block + 1));
        if (c.dev.browned_out()) return;
        c.dev.notify_supply(dev::SupplyEvent::kCommitEnd);
        ++st.progress_commits;
        ++st.units_executed;
      }
      void on_row_committed(ace::ExecCtx& c, std::size_t bi) override {
        c.dev.notify_supply(dev::SupplyEvent::kCommitBegin);
        c.dev.write(MemKind::kFram, c.cm.ctrl_base + 1,
                    static_cast<q15_t>((bi + 1) * c.q().bq));
        if (c.dev.browned_out()) return;
        c.dev.notify_supply(dev::SupplyEvent::kCommitEnd);
        ++st.progress_commits;
        ++st.units_executed;
      }
    } obs(st);

    ace::run_bcm(ctx, ace::BcmState{start_unit, ace::BcmStage::kLoad, 0, 0, 0}, &obs);
  }

  std::size_t layer_ = 0;
  std::size_t unit_ = 0;
  ace::ScratchArena arena_;  // reused across layers, attempts and inferences
};

}  // namespace

std::unique_ptr<RuntimePolicy> make_tails_policy() { return std::make_unique<TailsPolicy>(); }

}  // namespace ehdnn::flex
