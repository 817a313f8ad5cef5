#include "device/device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/math.h"

namespace ehdnn::dev {

Device::Device(DeviceConfig cfg, DeviceSlabs* slabs)
    : cfg_(cfg),
      c_sram_rd_(fixed_cost(Rail::kSramRead, cfg.cost.cycles_sram_word, cfg.cost.e_sram_read,
                            cfg.cost.p_cpu_active)),
      c_sram_wr_(fixed_cost(Rail::kSramWrite, cfg.cost.cycles_sram_word, cfg.cost.e_sram_write,
                            cfg.cost.p_cpu_active)),
      c_fram_rd_(fixed_cost(Rail::kFramRead, cfg.cost.cycles_fram_word, cfg.cost.e_fram_read,
                            cfg.cost.p_cpu_active)),
      c_fram_wr_(fixed_cost(Rail::kFramWrite, cfg.cost.cycles_fram_word, cfg.cost.e_fram_write,
                            cfg.cost.p_cpu_active)),
      c_cpu_mac_(fixed_cost(Rail::kCpu, cfg.cost.cycles_cpu_mac, 0.0, cfg.cost.p_cpu_active)),
      sram_(slabs != nullptr
                ? MemoryRegion(MemKind::kSram, cfg.sram_words, std::move(slabs->sram))
                : MemoryRegion(MemKind::kSram, cfg.sram_words)),
      fram_(slabs != nullptr
                ? MemoryRegion(MemKind::kFram, cfg.fram_words, std::move(slabs->fram))
                : MemoryRegion(MemKind::kFram, cfg.fram_words)),
      scramble_rng_(cfg.scramble_seed) {}

// The inline fast path in device.h already buffered the draw when the
// open window could take it; this tail sees only window-refused draws.
// A latched device has no window open, so every op lands here and the
// latch is tested first. Otherwise: charge the trace, settle, then either
// arm a fresh window or fall back to per-op consume.
bool Device::spend_slow(Rail rail, double cycles, double joules, double dt) {
  if (browned_out_) return false;
  trace_.add(rail, joules, cycles);
  if (supply_ == nullptr) return true;
  if (prepaid_open_) {
    settle_supply();
  }
  if (prepay_supported_) {
    const double budget = supply_->prepaid_budget();
    if (joules <= budget) {
      prepaid_open_ = true;
      prepaid_budget_ = budget - joules;
      prepaid_.push_back({joules, dt});
      return true;
    }
  }
  // Near brown-out (or against a supply that opted out): per-op
  // settlement, so the failure lands on exactly the op it would have.
  // That op's charge stays on the trace; its effect does not apply.
  browned_out_ = !supply_->consume(joules, dt);
  return !browned_out_;
}

void Device::settle_supply() {
  if (!prepaid_open_) return;
  prepaid_open_ = false;
  prepaid_budget_ = 0.0;
  const std::size_t n = prepaid_.size();
  const std::size_t done = supply_->consume_batch(prepaid_.data(), n);
  prepaid_.clear();
  if (done != n) {
    // The budget guarantee (prepaid_budget's slack) makes this
    // unreachable; a brown-out here would mean ops whose architectural
    // effects already landed were never paid for.
    fail("prepaid settlement browned out: budget invariant violated");
  }
}

void Device::cpu_ops(double n_ops) {
  // Kernels batch whole blocks of ALU work into one call; near brown-out,
  // fall back to op-granular spends so a dying burst's trace and supply
  // drain stop where per-op accounting would have stopped them.
  // (No reference mode: a burst is one draw in both.)
  const FixedOpCost c = cpu_ops_cost(n_ops);
  if (n_ops <= 1.0 || can_bulk_spend(c.joules)) {
    spend_fixed(c);
    return;
  }
  double remaining = n_ops;
  while (remaining > 0.0 && !browned_out_) {
    const double step = std::min(1.0, remaining);
    spend_fixed(cpu_ops_cost(step));
    remaining -= step;
  }
}

void Device::cpu_mac_cycles() { spend_fixed(c_cpu_mac_); }

// An unpaid read returns 0 without touching the region (a pending SRAM
// scramble stays unfilled).
fx::q15_t Device::read(MemKind mem, Addr a) {
  if (mem == MemKind::kSram) {
    return spend_fixed(c_sram_rd_) ? sram_.peek(a) : fx::q15_t{0};
  }
  return spend_fixed(c_fram_rd_) ? fram_.peek(a) : fx::q15_t{0};
}

void Device::write(MemKind mem, Addr a, fx::q15_t v) {
  if (mem == MemKind::kSram) {
    if (spend_fixed(c_sram_wr_)) sram_.poke(a, v);
    return;
  }
  if (spend_fixed(c_fram_wr_)) fram_.poke(a, v);
}

bool Device::can_bulk_spend_slow(double joules) {
  // A latched device takes the word-granular arms, whose first draw is
  // inert. Past the open window's budget the decision needs the true,
  // settled headroom.
  if (browned_out_) return false;
  if (prepaid_open_) settle_supply();
  return joules <= supply_->headroom();
}

namespace {

// Same-region overlapping copies must replay the scalar forward loop:
// its word-by-word self-propagation (read of an already-written word) is
// the architectural behavior, and memmove would diverge from it.
bool ranges_overlap(Addr a, Addr b, std::size_t n) {
  return a < b + n && b < a + n;
}

}  // namespace

void Device::read_block(MemKind mem, Addr a, std::span<fx::q15_t> out) {
  const std::size_t n = out.size();
  if (n == 0) return;
  // Near brown-out, replay the scalar sequence so the dying burst's trace
  // and supply drain stop at exactly the word the scalar path reaches.
  if (!charge_block(block_read_cost(mem, n))) {
    for (std::size_t i = 0; i < n && !browned_out_; ++i) out[i] = read(mem, a + i);
    return;
  }
  const auto src = region(mem).view(a, n);
  std::memcpy(out.data(), src.data(), n * sizeof(fx::q15_t));
}

void Device::write_block(MemKind mem, Addr a, std::span<const fx::q15_t> v) {
  const std::size_t n = v.size();
  if (n == 0) return;
  // Near brown-out, replay the scalar sequence: a failure then leaves the
  // same word-granular clean prefix (the FRAM intermittency contract) and
  // the same prefix-only trace/supply accounting.
  if (!charge_block(block_write_cost(mem, n))) {
    for (std::size_t i = 0; i < n && !browned_out_; ++i) write(mem, a + i, v[i]);
    return;
  }
  auto dst = region(mem).mut_view(a, n);
  std::memcpy(dst.data(), v.data(), n * sizeof(fx::q15_t));
}

void Device::read_gather(MemKind mem, Addr base, std::span<const std::uint32_t> offsets,
                         std::size_t span_words, std::span<fx::q15_t> out,
                         bool offsets_in_span) {
  const std::size_t n = offsets.size();
  check(out.size() == n, "read_gather: offsets/out size mismatch");
  if (n == 0) return;
  if (!charge_block(block_read_cost(mem, n))) {
    for (std::size_t i = 0; i < n && !browned_out_; ++i) {
      out[i] = read(mem, base + offsets[i]);
    }
    return;
  }
  const auto src = region(mem).view(base, span_words);
  if (offsets_in_span) {
    // The caller's gather table carries span = max offset + 1 as a
    // construction invariant; the window view above already range-checked
    // [base, base + span), so the per-element guard is pure overhead.
    for (std::size_t i = 0; i < n; ++i) {
      assert(offsets[i] < span_words);
      out[i] = src[offsets[i]];
    }
    return;
  }
  // Bare compare + [[noreturn]] fail keeps the guard out of the hot
  // path's way (check()'s source_location capture is measurably costly
  // per element at this call rate).
  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i] >= span_words) fail("read_gather: offset outside declared span");
    out[i] = src[offsets[i]];
  }
}

void Device::cpu_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst,
                      std::size_t words) {
  const CostModel& cm = cfg_.cost;
  if (words == 0) return;
  const auto dn = static_cast<double>(words);
  const FixedOpCost rd = block_read_cost(src_mem, words);
  const FixedOpCost wr = block_write_cost(dst_mem, words);
  // The headroom test covers the three draws as one: their cycles and
  // their per-word joules summed.
  const double rd_extra = dn * (src_mem == MemKind::kSram ? cm.e_sram_read : cm.e_fram_read);
  const double wr_extra = dn * (dst_mem == MemKind::kSram ? cm.e_sram_write : cm.e_fram_write);
  const FixedOpCost total =
      fixed_cost(Rail::kCpu, 2.0 * dn * cm.cycles_cpu_op + rd.cycles + wr.cycles,
                 rd_extra + wr_extra, cm.p_cpu_active);
  const bool word_granular =
      !bulk_enabled_ || (src_mem == dst_mem && ranges_overlap(src, dst, words)) ||
      !can_bulk_spend(total.joules);
  if (word_granular) {
    for (std::size_t i = 0; i < words && !browned_out_; ++i) {
      cpu_ops(2);  // address update + loop check
      write(dst_mem, dst + i, read(src_mem, src + i));
    }
    return;
  }
  const auto s = region(src_mem).view(src, words);
  auto d = region(dst_mem).mut_view(dst, words);
  cpu_ops(2.0 * dn);
  spend_fixed(rd);
  spend_fixed(wr);
  std::memcpy(d.data(), s.data(), words * sizeof(fx::q15_t));
}

void Device::dma_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst,
                      std::size_t words) {
  const CostModel& cm = cfg_.cost;
  if (!spend_fixed(fixed_cost(Rail::kDma, cm.cycles_dma_setup, 0.0, cm.p_dma_active))) return;
  MemoryRegion& s = region(src_mem);
  MemoryRegion& d = region(dst_mem);
  const double e_rd = src_mem == MemKind::kSram ? cm.e_sram_read : cm.e_fram_read;
  const double e_wr = dst_mem == MemKind::kSram ? cm.e_sram_write : cm.e_fram_write;
  if (bulk_enabled_ && words > 0 &&
      !(src_mem == dst_mem && ranges_overlap(src, dst, words))) {
    const auto dn = static_cast<double>(words);
    const FixedOpCost c =
        fixed_cost(Rail::kDma, dn * cm.cycles_dma_word, dn * (e_rd + e_wr), cm.p_dma_active);
    // Same near-brown-out rule as write_block: word-granular replay keeps
    // both the torn-FRAM prefix and the dying burst's accounting exact.
    if (can_bulk_spend(c.joules)) {
      const auto sv = s.view(src, words);
      auto dv = d.mut_view(dst, words);
      spend_fixed(c);
      std::memcpy(dv.data(), sv.data(), words * sizeof(fx::q15_t));
      return;
    }
  }
  const FixedOpCost word = fixed_cost(Rail::kDma, cm.cycles_dma_word, e_rd + e_wr, cm.p_dma_active);
  for (std::size_t i = 0; i < words; ++i) {
    // Word effect applied only after its energy is paid: a brown-out mid
    // transfer leaves a clean prefix.
    if (!spend_fixed(word)) return;
    d.poke(dst + i, s.peek(src + i));
  }
}

std::int64_t Device::lea_mac(Addr a, Addr b, std::size_t n, bool* overflow) {
  if (!spend_fixed(lea_mac_cost(n))) return 0;
  std::int64_t acc = 0;
  const auto va = sram_.view(a, n);
  const auto vb = sram_.view(b, n);
  if (overflow == nullptr) {
    // No flag requested: a plain widening dot product (the sum is exact
    // in int64 whatever the 32-bit excursions on the way).
    for (std::size_t i = 0; i < n; ++i) acc += fx::mul_q30(va[i], vb[i]);
    return acc;
  }
  bool ovf = false;
  for (std::size_t i = 0; i < n; ++i) {
    acc += fx::mul_q30(va[i], vb[i]);
    // Checked per element: a transient excursion past the 32-bit
    // accumulator must set the flag even if later products cancel it.
    if (acc > std::numeric_limits<fx::q31_t>::max() ||
        acc < std::numeric_limits<fx::q31_t>::min()) {
      ovf = true;
    }
  }
  *overflow = ovf;
  return acc;
}

// Each LEA op is one aggregated draw, and its operands are read and its
// result written through SRAM views, in both modes: SRAM is scrambled at
// reboot, so the all-or-nothing effect is unobservable (file comment).
void Device::lea_add(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  const auto dn = static_cast<double>(n);
  if (!spend_fixed(fixed_cost(Rail::kLea, cm.lea_setup + cm.lea_add_per_elem * dn,
                              static_cast<double>(2 * n) * cm.e_sram_read + dn * cm.e_sram_write,
                              cm.p_lea_active))) {
    return;
  }
  const auto va = sram_.view(a, n);
  const auto vb = sram_.view(b, n);
  auto vo = sram_.mut_view(out, n);
  for (std::size_t i = 0; i < n; ++i) vo[i] = fx::add_sat(va[i], vb[i], stats);
}

void Device::lea_mpy(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  const auto dn = static_cast<double>(n);
  if (!spend_fixed(fixed_cost(Rail::kLea, cm.lea_setup + cm.lea_mpy_per_elem * dn,
                              static_cast<double>(2 * n) * cm.e_sram_read + dn * cm.e_sram_write,
                              cm.p_lea_active))) {
    return;
  }
  const auto va = sram_.view(a, n);
  const auto vb = sram_.view(b, n);
  auto vo = sram_.mut_view(out, n);
  for (std::size_t i = 0; i < n; ++i) vo[i] = fx::mul_q15(va[i], vb[i], stats);
}

void Device::lea_shift(Addr a, Addr out, std::size_t n, int left_shift, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  if (!spend_fixed(fixed_cost(Rail::kLea,
                              cm.lea_setup + cm.lea_shift_per_elem * static_cast<double>(n),
                              static_cast<double>(n) * (cm.e_sram_read + cm.e_sram_write),
                              cm.p_lea_active))) {
    return;
  }
  const auto va = sram_.view(a, n);
  auto vo = sram_.mut_view(out, n);
  for (std::size_t i = 0; i < n; ++i) vo[i] = fx::shift_sat(va[i], left_shift, stats);
}

void Device::lea_cmul(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  if (!spend_fixed(fixed_cost(Rail::kLea,
                              cm.lea_setup + cm.lea_cmul_per_elem * static_cast<double>(n),
                              static_cast<double>(4 * n) * cm.e_sram_read +
                                  static_cast<double>(2 * n) * cm.e_sram_write,
                              cm.p_lea_active))) {
    return;
  }
  const auto va = sram_.view(a, 2 * n);
  const auto vb = sram_.view(b, 2 * n);
  auto vo = sram_.mut_view(out, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const fx::cq15 r = fx::cmul({va[2 * i], va[2 * i + 1]}, {vb[2 * i], vb[2 * i + 1]}, stats);
    vo[2 * i] = r.re;
    vo[2 * i + 1] = r.im;
  }
}

namespace {

double fft_cycles(const CostModel& cm, std::size_t n) {
  const double butterflies = static_cast<double>(n) / 2.0 * static_cast<double>(ilog2(n));
  return cm.lea_setup + cm.lea_fft_per_butterfly * butterflies;
}

}  // namespace

// The transform runs in place over the 2n SRAM words at `a`, through a
// reused complex scratch buffer.
int Device::lea_transform(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats,
                          bool inverse) {
  const CostModel& cm = cfg_.cost;
  // The LEA streams the working set through its local SRAM bank; model
  // one read + one write per word per pass over log2(n) stages.
  const double passes = static_cast<double>(ilog2(n));
  if (!spend_fixed(fixed_cost(
          Rail::kLea, fft_cycles(cm, n),
          static_cast<double>(2 * n) * passes * (cm.e_sram_read + cm.e_sram_write),
          cm.p_lea_active))) {
    return 0;
  }
  if (fft_scratch_.size() < n) fft_scratch_.resize(n);
  const std::span<fx::cq15> buf(fft_scratch_.data(), n);
  const auto words = sram_.mut_view(a, 2 * n);
  std::memcpy(static_cast<void*>(buf.data()), words.data(), 2 * n * sizeof(fx::q15_t));
  const int exp = inverse ? dsp::ifft_q15(buf, scaling, stats) : dsp::fft_q15(buf, scaling, stats);
  std::memcpy(words.data(), static_cast<const void*>(buf.data()), 2 * n * sizeof(fx::q15_t));
  return exp;
}

void Device::reboot() {
  browned_out_ = false;
  ++reboots_;
  sram_.scramble(scramble_rng_);
  // Boot sequence: clock/FRAM controller init, reset vector dispatch.
  // Charged to the CPU rail once back on.
  spend_fixed(fixed_cost(Rail::kCpu, 400.0, 0.0, cfg_.cost.p_cpu_active));
  notify_supply(SupplyEvent::kReboot);
}

double Device::sample_voltage() {
  // Comparator poll: trivial but not free.
  spend_fixed(fixed_cost(Rail::kCpu, 6.0, 0.0, cfg_.cost.p_cpu_active));
  settle_supply();  // the comparator must read the settled store
  return supply_ != nullptr ? supply_->voltage() : 3.3;
}

}  // namespace ehdnn::dev
