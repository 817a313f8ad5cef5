// FlexPolicy: the paper's FLEX — intermittent support for ACE with
// on-demand robust checkpointing (SSIII-C, Fig. 6).
//
// Steady state costs almost nothing: the only unconditional checkpoint is
// a small header written at each layer transition (which also closes the
// ping-pong-buffer W-A-R hazard: execution never needs to resume more than
// one layer back, so a later layer can safely overwrite the buffer an
// earlier layer read). Everything else happens on demand: the voltage
// monitor warns before brown-out, and only then does FLEX copy its live
// state — block index, the b0-b2 stage bits, FFT intermediates, the
// accumulator row — into FRAM.
//
// Checkpoints are double-buffered: payload and header fields first, the
// sequence word last (a single-word, hence atomic, commit). A failure in
// the middle of a checkpoint simply falls back to the previous slot, and
// the fallback is always safe because a slot only becomes stale after its
// successor's sequence word lands.

#include <algorithm>
#include <chrono>

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

// Header word offsets within a checkpoint slot.
constexpr Addr kSeq = 0;    // written last; 0 = invalid
constexpr Addr kLayer = 1;
constexpr Addr kUnit = 2;   // conv row / dense chunk / cpu block / bcm block
constexpr Addr kStage = 3;  // BcmStage (bcm checkpoints only)
constexpr Addr kExpX = 4;
constexpr Addr kExpW = 5;
constexpr Addr kExpP = 6;
constexpr Addr kKind = 7;   // 0 none, 1 dense acc32, 2 bcm full state
constexpr Addr kPayload = 16;

struct ResumePoint {
  std::size_t layer = 0;
  std::size_t unit = 0;
  bool is_bcm = false;
  ace::BcmState bcm;
  int kind = 0;
  std::size_t seq = 0;
  Addr slot_base = 0;  // where the payload lives

  // Execution-position key (sequence number excluded): two checkpoints at
  // the same position represent zero forward progress.
  bool same_position(const ResumePoint& o) const {
    return layer == o.layer && unit == o.unit && kind == o.kind &&
           bcm.block == o.bcm.block && bcm.stage == o.bcm.stage;
  }
};

// Serial-number comparison so the 16-bit sequence word may wrap.
bool seq_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(a - b)) > 0;
}

class FlexPolicy : public RuntimePolicy {
 public:
  void on_boot(StepContext& ctx, bool fresh) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    prof_ = ctx.opts.profile;
    trace_ = ctx.opts.trace;
    if (fresh) {
      load_input(dev, cm, ctx.input);
      // Invalidate both slots: fresh inference, fresh progress.
      dev.write(MemKind::kFram, cm.ckpt_base + kSeq, 0);
      dev.write(MemKind::kFram, cm.ckpt_base + cm.ckpt_slot_words + kSeq, 0);
      if (dev.browned_out()) return;
      seq_ = 0;
      warned_ = false;
      armed_ = false;
      degraded_ = false;
      have_prev_ = false;
    }
    const ResumePoint rp = read_resume_point(dev, cm);
    if (dev.browned_out()) return;
    rp_ = rp;
    seq_ = rp_.seq;  // continue the sequence monotonically
    // Progress guard: a power cycle that resumes exactly where the
    // previous one did made no forward progress (e.g. the voltage
    // monitor is mis-thresholded and the warning checkpoint lands on
    // the resume point). Degraded mode checkpoints at every commit —
    // TAILS-like cost, but guaranteed progress in any configuration.
    degraded_ = have_prev_ && rp_.same_position(prev_rp_);
    prev_rp_ = rp_;
    have_prev_ = true;
    layer_ = rp_.layer;
    resume_pending_ = rp_.seq != 0;
  }

  bool step(StepContext& ctx) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    const std::size_t l = layer_;
    const QLayer& q = cm.model.layers[l];
    ace::ExecCtx ectx{dev, cm, l, cm.act_in(l), cm.act_out(l),
                      ctx.opts.scaling, ctx.opts.stats, &arena_};
    const bool resuming = resume_pending_ && l == rp_.layer;

    ace::UnitHooks hooks;
    hooks.boundary = [&](std::size_t unit) { poll_and_checkpoint(ctx, unit); };
    hooks.committed = [&](std::size_t unit) { on_commit(ctx, unit); };

    if (q.kind == QKind::kBcmDense) {
      ace::BcmState bst{0, ace::BcmStage::kLoad, 0, 0, 0};
      if (resuming && rp_.is_bcm) {
        bst = rp_.bcm;
        restore_bcm_payload(dev, cm, rp_, q);
      }
      FlexBcmObserver obs(*this, ctx);
      ace::run_bcm(ectx, bst, &obs);
    } else {
      std::size_t start = 0;
      if (resuming) {
        start = rp_.unit;
        if (q.kind == QKind::kDense && rp_.kind == 1 && start > 0) {
          ace::move_words(dev, MemKind::kFram, rp_.slot_base + kPayload, MemKind::kSram,
                          cm.sram.acc32, 2 * q.out_ch);
        }
      }
      ace::run_layer(ectx, start, hooks);
    }
    if (dev.browned_out()) return false;

    // Mandatory layer-transition checkpoint (header-only): resume never
    // reaches back past a completed layer.
    write_checkpoint(dev, cm, /*layer=*/l + 1, /*unit=*/0, /*kind=*/0, nullptr, nullptr,
                     ctx.st);
    if (dev.browned_out()) return false;
    resume_pending_ = false;
    return ++layer_ == cm.model.layers.size();
  }

  void on_commit(StepContext& ctx, std::size_t unit) override {
    RuntimePolicy::on_commit(ctx, unit);
    if (degraded_ || warned_) {
      // Once the monitor has warned (death imminent) — or the progress
      // guard tripped — persist every commit so at most one unit of
      // work is lost to the brown-out.
      const QLayer& q = ctx.cm.model.layers[layer_];
      const int kind = q.kind == QKind::kDense ? 1 : 0;
      write_checkpoint(ctx.dev, ctx.cm, layer_, unit + 1, kind, nullptr,
                       kind == 1 ? &q : nullptr, ctx.st);
    }
  }

  // The monitor fired: persist the live state for the layer kind at hand
  // (the BCM path carries its stage machine separately and checkpoints
  // directly from poll_and_checkpoint).
  void on_warning(StepContext& ctx, std::size_t unit) override {
    const QLayer& q = ctx.cm.model.layers[layer_];
    if (q.kind == QKind::kDense) {
      write_checkpoint(ctx.dev, ctx.cm, layer_, unit, /*kind=*/1, nullptr, &q, ctx.st);
    } else {
      write_checkpoint(ctx.dev, ctx.cm, layer_, unit, /*kind=*/0, nullptr, nullptr, ctx.st);
    }
  }

  bool retry_after_failure(StepContext& ctx, double attempt_cycles) override {
    (void)ctx;
    (void)attempt_cycles;
    warned_ = false;
    armed_ = false;
    return true;
  }

 private:
  Addr slot_addr(const ace::CompiledModel& cm, std::size_t slot) const {
    return cm.ckpt_base + slot * cm.ckpt_slot_words;
  }

  ResumePoint read_resume_point(dev::Device& dev, const ace::CompiledModel& cm) {
    ResumePoint best;  // defaults: layer 0, unit 0, seq 0 (fresh start)
    for (std::size_t s = 0; s < 2; ++s) {
      const Addr b = slot_addr(cm, s);
      const auto seq = static_cast<std::uint16_t>(dev.read(MemKind::kFram, b + kSeq));
      if (seq == 0 ||
          (best.seq != 0 && !seq_newer(seq, static_cast<std::uint16_t>(best.seq)))) {
        continue;
      }
      best.seq = seq;
      best.slot_base = b;
      best.layer = static_cast<std::uint16_t>(dev.read(MemKind::kFram, b + kLayer));
      best.unit = static_cast<std::uint16_t>(dev.read(MemKind::kFram, b + kUnit));
      best.kind = static_cast<std::uint16_t>(dev.read(MemKind::kFram, b + kKind));
      best.is_bcm = best.kind == 2;
      if (best.is_bcm) {
        best.bcm.block = best.unit;
        best.bcm.stage =
            static_cast<ace::BcmStage>(dev.read(MemKind::kFram, b + kStage));
        best.bcm.exp_x = dev.read(MemKind::kFram, b + kExpX);
        best.bcm.exp_w = dev.read(MemKind::kFram, b + kExpW);
        best.bcm.exp_p = dev.read(MemKind::kFram, b + kExpP);
      }
    }
    return best;
  }

  void restore_bcm_payload(dev::Device& dev, const ace::CompiledModel& cm,
                           const ResumePoint& rp, const QLayer& q) {
    const std::size_t k = q.k;
    Addr p = rp.slot_base + kPayload;
    ace::move_words(dev, MemKind::kFram, p, MemKind::kSram, cm.sram.acc32, 4 * k);
    p += 4 * k;
    ace::move_words(dev, MemKind::kFram, p, MemKind::kSram, cm.sram.fft_x, 2 * k);
    p += 2 * k;
    ace::move_words(dev, MemKind::kFram, p, MemKind::kSram, cm.sram.fft_w, 2 * k);
  }

  // The on-demand trigger: sample the voltage monitor; on the *falling
  // crossing* of the warning threshold, checkpoint once (SSIII-C "predicts
  // a power failure and checkpoints the latest intermediate result").
  // Edge-triggering (arm above the threshold, fire below it) keeps a
  // mis-thresholded monitor from checkpointing at the resume point and
  // burning the burst; the progress guard in on_boot covers the rest.
  void poll_and_checkpoint(StepContext& ctx, std::size_t unit,
                           const ace::BcmState* bcm = nullptr) {
    if (warned_) return;
    const double v = ctx.dev.sample_voltage();
    if (ctx.dev.browned_out()) return;
    if (v >= ctx.opts.flex_v_warn) {
      armed_ = true;
      return;
    }
    if (!armed_) return;
    warned_ = true;

    if (bcm != nullptr) {
      const QLayer& q = ctx.cm.model.layers[layer_];
      write_checkpoint(ctx.dev, ctx.cm, layer_, bcm->block, /*kind=*/2, bcm, &q, ctx.st);
    } else {
      on_warning(ctx, unit);
    }
  }

  void write_checkpoint(dev::Device& dev, const ace::CompiledModel& cm, std::size_t layer,
                        std::size_t unit, int kind, const ace::BcmState* bcm,
                        const QLayer* q, RunStats& st) {
    const auto before = dev.trace().snapshot();
    const auto host_t0 = prof_ != nullptr ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
    obs::record(trace_, obs_now_s(dev), obs::EventKind::kCheckpointBegin);
    dev.notify_supply(dev::SupplyEvent::kCheckpointBegin);
    const std::size_t next_seq = seq_ + 1;
    const Addr b = slot_addr(cm, next_seq & 1);

    // Payload first, then header fields, sequence word last.
    if (kind == 1 && q != nullptr) {
      ace::move_words(dev, MemKind::kSram, cm.sram.acc32, MemKind::kFram, b + kPayload,
                      2 * q->out_ch);
    } else if (kind == 2 && q != nullptr) {
      const std::size_t k = q->k;
      Addr p = b + kPayload;
      ace::move_words(dev, MemKind::kSram, cm.sram.acc32, MemKind::kFram, p, 4 * k);
      p += 4 * k;
      ace::move_words(dev, MemKind::kSram, cm.sram.fft_x, MemKind::kFram, p, 2 * k);
      p += 2 * k;
      ace::move_words(dev, MemKind::kSram, cm.sram.fft_w, MemKind::kFram, p, 2 * k);
    }
    dev.write(MemKind::kFram, b + kLayer, static_cast<q15_t>(layer));
    dev.write(MemKind::kFram, b + kUnit, static_cast<q15_t>(unit));
    dev.write(MemKind::kFram, b + kKind, static_cast<q15_t>(kind));
    if (bcm != nullptr) {
      dev.write(MemKind::kFram, b + kStage, static_cast<q15_t>(bcm->stage));
      dev.write(MemKind::kFram, b + kExpX, static_cast<q15_t>(bcm->exp_x));
      dev.write(MemKind::kFram, b + kExpW, static_cast<q15_t>(bcm->exp_w));
      dev.write(MemKind::kFram, b + kExpP, static_cast<q15_t>(bcm->exp_p));
    }
    dev.write(MemKind::kFram, b + kSeq, static_cast<q15_t>(next_seq));
    if (dev.browned_out()) return;  // torn: the previous slot stays current
    dev.notify_supply(dev::SupplyEvent::kCheckpointEnd);
    obs::record(trace_, obs_now_s(dev), obs::EventKind::kCheckpointEnd,
                static_cast<std::int32_t>(next_seq));
    seq_ = next_seq;

    const auto delta = dev.trace().delta(before);
    ++st.checkpoints;
    st.checkpoint_energy_j += delta.energy;
    if (prof_ != nullptr) {
      // Carve the write out of the enclosing kernel slice: the executor
      // adds the whole slice's wall-clock to kernel_s afterwards.
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0).count();
      prof_->checkpoint_s += dt;
      prof_->kernel_s -= dt;
      ++*prof_->checkpoints;
    }
  }

  class FlexBcmObserver : public ace::BcmObserver {
   public:
    FlexBcmObserver(FlexPolicy& p, StepContext& ctx) : p_(p), ctx_(ctx) {}

    void on_stage(ace::ExecCtx& ectx, const ace::BcmState& stg) override {
      (void)ectx;
      p_.poll_and_checkpoint(ctx_, stg.block, &stg);
    }
    void on_block_done(ace::ExecCtx& ectx, std::size_t block) override {
      // Between blocks the resumable state is (block + 1, kLoad) with the
      // accumulator row live in SRAM. A row's last block defers to the row
      // commit so a restart can never skip committing the row output.
      const ace::BcmState next{block + 1, ace::BcmStage::kLoad, 0, 0, 0};
      if ((block + 1) % ectx.q().bq != 0) {
        p_.poll_and_checkpoint(ctx_, block + 1, &next);
        if (ectx.dev.browned_out()) return;
        if (p_.degraded_ || p_.warned_) {
          p_.write_checkpoint(ectx.dev, ectx.cm, p_.layer_, block + 1, /*kind=*/2, &next,
                              &ectx.q(), ctx_.st);
        }
      }
    }
    void on_row_committed(ace::ExecCtx& ectx, std::size_t bi) override {
      ++ctx_.st.units_executed;
      if (p_.degraded_ || p_.warned_) {
        const ace::BcmState next{(bi + 1) * ectx.q().bq, ace::BcmStage::kLoad, 0, 0, 0};
        p_.write_checkpoint(ectx.dev, ectx.cm, p_.layer_, next.block, /*kind=*/2, &next,
                            &ectx.q(), ctx_.st);
      }
    }

   private:
    FlexPolicy& p_;
    StepContext& ctx_;
  };

  std::size_t seq_ = 0;
  PhaseProfile* prof_ = nullptr;  // --profile sink, cached at boot
  obs::EventTrace* trace_ = nullptr;  // obs sink, cached at boot
  bool warned_ = false;
  bool armed_ = false;
  bool degraded_ = false;
  std::size_t layer_ = 0;
  bool resume_pending_ = false;
  ResumePoint rp_;
  ResumePoint prev_rp_;
  bool have_prev_ = false;
  ace::ScratchArena arena_;  // reused across layers, attempts and inferences
};

}  // namespace

std::unique_ptr<RuntimePolicy> make_flex_policy() { return std::make_unique<FlexPolicy>(); }

double worst_checkpoint_energy(const ace::CompiledModel& cm, const dev::CostModel& cost) {
  // Largest payload: BCM full state (accumulator row + both complex
  // buffers) plus the header, written with DMA word costs.
  std::size_t max_k = 0;
  std::size_t max_dense_out = 0;
  for (const auto& l : cm.model.layers) {
    if (l.kind == quant::QKind::kBcmDense) max_k = std::max(max_k, l.k);
    if (l.kind == quant::QKind::kDense) max_dense_out = std::max(max_dense_out, l.out_ch);
  }
  const std::size_t words = std::max(8 * max_k, 2 * max_dense_out) + 16;
  const double per_word =
      cost.e_fram_write + cost.e_sram_read +
      cost.cycles_dma_word / cost.cpu_hz * cost.p_dma_active;
  return static_cast<double>(words) * per_word +
         cost.cycles_dma_setup / cost.cpu_hz * cost.p_dma_active;
}

}  // namespace ehdnn::flex
