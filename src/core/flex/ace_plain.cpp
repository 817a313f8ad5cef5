// AcePolicy: the ACE execution engine with no intermittence support.
// On the compressed model this is the paper's "ACE"; on the dense model it
// is "BASE". A power failure loses all volatile progress, so the whole
// inference restarts — under harvested power with a 100 uF buffer the
// inference energy exceeds the burst energy by orders of magnitude and the
// run can never complete (Fig. 7b).

#include "core/flex/executor.h"

namespace ehdnn::flex {

namespace {

class AcePolicy : public RuntimePolicy {
 public:
  void on_boot(StepContext& ctx, bool fresh) override {
    if (fresh) {
      best_attempt_cycles_ = 0.0;
      stale_attempts_ = 0;
    }
    // No checkpoints: every power cycle restarts from scratch, which
    // implies re-acquiring the input (cost-free, see load_input).
    load_input(ctx.dev, ctx.cm, ctx.input);
    layer_ = 0;
  }

  bool step(StepContext& ctx) override {
    const std::size_t l = layer_;
    ace::ExecCtx ectx{ctx.dev, ctx.cm, l, ctx.cm.act_in(l), ctx.cm.act_out(l),
                      ctx.opts.scaling, ctx.opts.stats, &arena_};
    ace::UnitHooks hooks;
    hooks.committed = [&](std::size_t u) { on_commit(ctx, u); };
    ace::run_layer(ectx, 0, hooks);
    if (ctx.dev.browned_out()) return false;
    return ++layer_ == ctx.cm.model.layers.size();
  }

  // Livelock detection: without checkpoints, every attempt restarts from
  // scratch. If the farthest point reached stops improving for a window
  // of attempts, no future attempt can complete either (burst energy is
  // bounded) and the run is declared DNF — the paper's "X" in Fig. 7b.
  bool retry_after_failure(StepContext& ctx, double attempt_cycles) override {
    (void)ctx;
    if (attempt_cycles > best_attempt_cycles_ * 1.001) {
      best_attempt_cycles_ = attempt_cycles;
      stale_attempts_ = 0;
    } else {
      ++stale_attempts_;
    }
    return stale_attempts_ < kPatience;
  }

 private:
  static constexpr int kPatience = 25;

  std::size_t layer_ = 0;
  double best_attempt_cycles_ = 0.0;
  int stale_attempts_ = 0;
  ace::ScratchArena arena_;  // reused across layers, attempts and inferences
};

}  // namespace

std::unique_ptr<RuntimePolicy> make_ace_policy() { return std::make_unique<AcePolicy>(); }

}  // namespace ehdnn::flex
