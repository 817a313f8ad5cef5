// TilePolicy: sub-layer progress preservation for micro-capacitor power
// envelopes (the ROADMAP's "Sub-layer progress preservation" item).
//
// Every other strategy banks progress at layer/unit granularity, so a
// conv whose single output element outcosts one charge burst re-executes
// forever — SONIC's smallest conv commit is a whole output pixel, and at
// <=50 nF that pixel never fits a burst. Tile splits each element's
// reduction into tiles of `t` MACs (walked through the LayerPlan gather
// tables, core/ace/kernels.cpp run_tile) and after every tile commits a
// (layer, outer, tile, accumulator) cursor to FRAM, so a boot that
// survives one tile plus one commit makes forward progress.
//
// The cursor record is double-buffered and torn-write safe: two slots in
// the compiled model's ctrl block (ace::kTileCursorOffset), each
// [epoch | layer | outer | tile | acc64]. A commit writes the payload
// words first and publishes with the single-word epoch write LAST; a
// brown-out anywhere inside the commit leaves the slot's old epoch in
// place, so the next boot falls back to the other (previous, consistent)
// slot — never a mixed record. Epochs alternate slots by parity, with 0
// reserved as "invalid" (what a fresh run writes to both slots); the
// uint16 wrap skips to 2 so the parity alternation survives it.
//
// Replaying a tile whose commit tore is idempotent: operands live in the
// read-only half of the activation ping-pong, the accumulator restores
// from the last published cursor, and the output word (written only on an
// element's final tile) is rewritten with the identical value. Outputs
// are therefore bit-identical to continuous power for any failure
// schedule — the contract tests/fuzz_intermittent_test.cpp replays
// against torn-tile, torn-payload and torn-epoch-flip schedules.
//
// Dense models only (no BCM support), exactly like SONIC; spec grammar
// "tile[:t=N]" with N >= 1 MACs per tile (default 8).

#include <algorithm>

#include "core/flex/executor.h"
#include "util/check.h"
#include "util/math.h"
#include "util/spec.h"

namespace ehdnn::flex {

namespace {

using dev::Addr;
using dev::MemKind;
using fx::q15_t;

// Same 16-bit sequence comparison the FLEX checkpoint slots use.
bool epoch_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(a - b)) > 0;
}

class TilePolicy : public RuntimePolicy {
 public:
  explicit TilePolicy(TileSpec spec) : t_(spec.tile_elems) {}

  long units_total(const ace::CompiledModel& cm) const override {
    return static_cast<long>(ace::tile_total_units(cm, t_));
  }

  void on_boot(StepContext& ctx, bool fresh) override {
    dev::Device& dev = ctx.dev;
    const ace::CompiledModel& cm = ctx.cm;
    if (fresh) {
      // Cursor fields persist as single q15 words; make sure this model
      // cannot overflow them (would corrupt the resume position).
      for (std::size_t l = 0; l < cm.model.layers.size(); ++l) {
        const quant::QLayer& q = cm.model.layers[l];
        const std::size_t outers =
            q.kind == quant::QKind::kDense ? q.out_ch : q.out_size();
        const std::size_t red =
            q.kind == quant::QKind::kDense
                ? q.in_ch
                : q.in_ch * std::max<std::size_t>(q.kh * q.kw, q.k);
        check(outers <= 0xffff && div_ceil(red, t_) <= 0xffff,
              "tile: model too large for 16-bit cursor fields");
      }
      load_input(dev, cm, ctx.input);
      // Invalidate both slots; epoch 0 is never published by a commit.
      dev.write(MemKind::kFram, slot_base(cm, 0), 0);
      dev.write(MemKind::kFram, slot_base(cm, 1), 0);
      cur_ = ace::TileCursor{};
      epoch_ = 0;
      return;
    }
    // Restore from the newer valid slot. A torn commit never published
    // its epoch word, so the previous consistent record wins.
    const auto e0 = read_u16(dev, slot_base(cm, 0));
    const auto e1 = read_u16(dev, slot_base(cm, 1));
    cur_ = ace::TileCursor{};
    epoch_ = 0;
    int pick = -1;
    if (e0 != 0 && (e1 == 0 || epoch_newer(e0, e1))) {
      pick = 0;
    } else if (e1 != 0) {
      pick = 1;
    }
    if (pick >= 0) {
      const Addr b = slot_base(cm, static_cast<std::size_t>(pick));
      epoch_ = pick == 0 ? e0 : e1;
      cur_.layer = read_u16(dev, b + 1);
      cur_.outer = read_u16(dev, b + 2);
      cur_.tile = read_u16(dev, b + 3);
      cur_.acc = ace::read_acc64(dev, MemKind::kFram, b + 4, 0);
    }
  }

  bool step(StepContext& ctx) override {
    const ace::CompiledModel& cm = ctx.cm;
    // A brown-out during the FINAL cursor commit can resume with the
    // cursor already past the last layer: the output is fully committed,
    // there is nothing left to execute.
    if (cur_.layer >= cm.model.layers.size()) return true;
    const std::size_t l = cur_.layer;
    ace::ExecCtx ectx{ctx.dev,          cm,
                      l,                cm.act_in(l),
                      cm.act_out(l),    ctx.opts.scaling,
                      ctx.opts.stats,   &arena_};
    bool layer_done = false;
    while (!layer_done) {
      layer_done = ace::run_tile(ectx, cur_, t_);
      if (ctx.dev.browned_out() || !commit_cursor(ctx)) return false;
      on_commit(ctx, cur_.tile);
    }
    return cur_.layer == cm.model.layers.size();
  }

  void on_commit(StepContext& ctx, std::size_t unit) override {
    RuntimePolicy::on_commit(ctx, unit);
    ++ctx.st.progress_commits;
  }

 private:
  static Addr slot_base(const ace::CompiledModel& cm, std::size_t slot) {
    return cm.ctrl_base + ace::kTileCursorOffset + slot * ace::kTileSlotWords;
  }

  static std::uint16_t read_u16(dev::Device& dev, Addr a) {
    return static_cast<std::uint16_t>(dev.read(MemKind::kFram, a));
  }

  // False when the commit browned out (the epoch was not published).
  bool commit_cursor(StepContext& ctx) {
    dev::Device& dev = ctx.dev;
    auto next = static_cast<std::uint16_t>(epoch_ + 1);
    // Skip the invalid epoch 0 on wrap; skipping TWO values keeps the
    // slot parity alternating, so a torn commit always tears into the
    // slot the previous record does NOT occupy.
    if (next == 0) next = 2;
    const Addr b = slot_base(ctx.cm, next & 1);
    dev.notify_supply(dev::SupplyEvent::kCommitBegin);
    // Payload first; the single-word epoch publish is what makes the
    // slot valid, so a tear anywhere before it is harmless.
    dev.write(MemKind::kFram, b + 1, static_cast<q15_t>(cur_.layer));
    dev.write(MemKind::kFram, b + 2, static_cast<q15_t>(cur_.outer));
    dev.write(MemKind::kFram, b + 3, static_cast<q15_t>(cur_.tile));
    ace::write_acc64(dev, MemKind::kFram, b + 4, 0, cur_.acc);
    dev.write(MemKind::kFram, b + 0, static_cast<q15_t>(next));
    if (dev.browned_out()) return false;
    dev.notify_supply(dev::SupplyEvent::kCommitEnd);
    obs::record(ctx.opts.trace, obs_now_s(dev), obs::EventKind::kTileCursorWrite,
                static_cast<std::int32_t>(cur_.layer),
                static_cast<std::int32_t>(cur_.tile));
    epoch_ = next;
    return true;
  }

  std::size_t t_;
  ace::TileCursor cur_;
  std::uint16_t epoch_ = 0;
  ace::ScratchArena arena_;
};

}  // namespace

TileSpec parse_tile_spec(const std::string& key) {
  TileSpec spec;
  check_input(key.substr(0, key.find(':')) == "tile",
              "tile spec must start with \"tile\": " + key);
  SpecArgs a(key);
  spec.tile_elems = a.integer<std::size_t>("t", spec.tile_elems, 1, 4096);
  a.finish();
  return spec;
}

std::unique_ptr<RuntimePolicy> make_tile_policy(TileSpec spec) {
  return std::make_unique<TilePolicy>(spec);
}

}  // namespace ehdnn::flex
