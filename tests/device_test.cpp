#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "device/device.h"
#include "dsp/fft.h"
#include "fixed/vec.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "util/rng.h"

namespace ehdnn::dev {
namespace {

using fx::q15_t;

TEST(MemoryRegion, PeekPokeAndBounds) {
  MemoryRegion m(MemKind::kSram, 16);
  m.poke(3, 1234);
  EXPECT_EQ(m.peek(3), 1234);
  EXPECT_THROW(m.peek(16), Error);
  EXPECT_THROW(m.poke(99, 0), Error);
}

TEST(MemoryRegion, AllocatorTracksSegments) {
  MemoryRegion m(MemKind::kFram, 100);
  const Addr a = m.alloc(30, "a");
  const Addr b = m.alloc(50, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 30u);
  EXPECT_EQ(m.free_words(), 20u);
  EXPECT_THROW(m.alloc(21, "too-big"), Error);
  m.reset_allocator();
  EXPECT_EQ(m.free_words(), 100u);
}

TEST(MemoryRegion, ScrambleChangesContents) {
  MemoryRegion m(MemKind::kSram, 64);
  for (Addr a = 0; a < 64; ++a) m.poke(a, 7);
  Rng rng(1);
  m.scramble(rng);
  int unchanged = 0;
  for (Addr a = 0; a < 64; ++a) unchanged += m.peek(a) == 7 ? 1 : 0;
  EXPECT_LT(unchanged, 8);
}

// The words a deferred scramble stands for: the fill of Rng(key), four
// q15 words per draw, low half-word first.
std::vector<q15_t> expected_fill(std::uint64_t key, std::size_t n) {
  Rng rng(key);
  std::vector<q15_t> w(n);
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) r = rng.next_u64();
    w[i] = static_cast<q15_t>(r >> (16 * (i % 4)));
  }
  return w;
}

std::vector<q15_t> contents(const MemoryRegion& m) {
  std::vector<q15_t> w(m.size_words());
  for (Addr a = 0; a < w.size(); ++a) w[a] = m.peek(a);
  return w;
}

// The device's block and LEA ops read through view()/mut_view() and its
// word ops through peek()/poke(): all four must see the same words.
TEST(MemoryRegion, ScrambleIsTheSameWhicheverAccessorComesFirst) {
  constexpr std::size_t kN = 64;
  constexpr std::uint64_t kSeed = 0x51ab;
  const std::uint64_t key = Rng(kSeed).next_u64();
  const auto want = expected_fill(key, kN);
  auto scrambled = [&] {
    MemoryRegion m(MemKind::kSram, kN);
    Rng rng(kSeed);
    m.scramble(rng);
    EXPECT_EQ(m.fills(), 0);  // nothing has looked yet
    return m;
  };

  MemoryRegion by_peek = scrambled();
  EXPECT_EQ(by_peek.peek(17), want[17]);
  EXPECT_EQ(contents(by_peek), want);
  EXPECT_EQ(by_peek.fills(), 1);

  MemoryRegion by_view = scrambled();
  const auto v = by_view.view(0, kN);
  EXPECT_EQ(std::vector<q15_t>(v.begin(), v.end()), want);

  MemoryRegion by_mut_view = scrambled();
  const auto mv = by_mut_view.mut_view(8, 4);
  EXPECT_EQ(std::vector<q15_t>(mv.begin(), mv.end()),
            std::vector<q15_t>(want.begin() + 8, want.begin() + 12));
  EXPECT_EQ(contents(by_mut_view), want);

  MemoryRegion by_poke = scrambled();
  by_poke.poke(5, 1234);
  auto poked = want;
  poked[5] = 1234;
  EXPECT_EQ(contents(by_poke), poked);
  EXPECT_EQ(by_poke.fills(), 1);
}

TEST(MemoryRegion, SecondScrambleBeforeAnyAccessReplacesTheKey) {
  constexpr std::size_t kN = 32;
  MemoryRegion m(MemKind::kSram, kN);
  Rng rng(7);
  m.scramble(rng);
  m.scramble(rng);
  Rng keys(7);
  keys.next_u64();
  EXPECT_EQ(contents(m), expected_fill(keys.next_u64(), kN));
  EXPECT_EQ(m.fills(), 1);
}

TEST(MemoryRegion, ScrambleFillsATailShorterThanOneDraw) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 9u}) {
    MemoryRegion m(MemKind::kSram, n);
    for (Addr a = 0; a < n; ++a) m.poke(a, 7);
    Rng rng(n);
    m.scramble(rng);
    EXPECT_EQ(contents(m), expected_fill(Rng(n).next_u64(), n)) << "n=" << n;
  }
}

TEST(MemoryRegion, TakeStorageDropsAPendingFill) {
  MemoryRegion m(MemKind::kSram, 16);
  for (Addr a = 0; a < 16; ++a) m.poke(a, 7);
  Rng rng(3);
  m.scramble(rng);
  const WordStorage storage = m.take_storage();
  EXPECT_EQ(std::vector<q15_t>(storage.begin(), storage.end()), std::vector<q15_t>(16, 7));
  EXPECT_EQ(m.fills(), 0);
}

TEST(MemoryRegion, CloneFromAStaleSourceCopiesTheFill) {
  constexpr std::size_t kN = 24;
  MemoryRegion src(MemKind::kSram, kN);
  Rng rng(11);
  src.scramble(rng);
  MemoryRegion dst(MemKind::kSram, kN);
  Rng other(12);
  dst.scramble(other);  // overwritten unread: never filled
  dst.clone_from(src);
  // The clone takes over the pending fill without writing the source;
  // each region materializes it at its own first access.
  EXPECT_EQ(src.fills(), 0);
  const auto want = expected_fill(Rng(11).next_u64(), kN);
  EXPECT_EQ(contents(dst), want);
  EXPECT_EQ(contents(src), want);
  EXPECT_EQ(src.fills(), 1);
  EXPECT_EQ(dst.fills(), 1);
}

// A slab whose every word is dirty: what a retired device hands the next.
WordStorage dirty_slab(std::size_t n, q15_t v) {
  MemoryRegion m(MemKind::kFram, n);
  for (q15_t& w : m.mut_view(0, n)) w = v;
  return m.take_storage();
}

constexpr std::size_t kPage = MemoryRegion::kZeroPageWords;

TEST(MemoryRegion, FreshRegionReadsZerosAtBothEnds) {
  constexpr std::size_t kN = 3 * kPage + 5;
  MemoryRegion fresh(MemKind::kFram, kN);
  EXPECT_EQ(fresh.peek(0), 0);
  EXPECT_EQ(fresh.peek(kN - 1), 0);
  MemoryRegion recycled(MemKind::kFram, kN, dirty_slab(kN, 0x7777));
  EXPECT_EQ(recycled.peek(kN - 1), 0);
  EXPECT_EQ(recycled.peek(0), 0);
  EXPECT_EQ(contents(recycled), std::vector<q15_t>(kN, 0));
  // A recycled slab larger than the region is cut to the region's size.
  MemoryRegion smaller(MemKind::kSram, 7, dirty_slab(kN, 0x7777));
  EXPECT_EQ(smaller.size_words(), 7u);
  EXPECT_EQ(contents(smaller), std::vector<q15_t>(7, 0));
}

TEST(MemoryRegion, ViewStraddlingTheZeroedPrefixReadsZerosAboveIt) {
  constexpr std::size_t kN = 4 * kPage;
  MemoryRegion m(MemKind::kFram, kN, dirty_slab(kN, 0x7777));
  m.poke(kPage - 1, 9);  // zeroes exactly the first page
  const auto v = m.view(kPage - 2, 4);
  EXPECT_EQ(std::vector<q15_t>(v.begin(), v.end()), (std::vector<q15_t>{0, 9, 0, 0}));
  const auto mv = m.mut_view(2 * kPage - 1, kPage + 2);
  EXPECT_EQ(std::vector<q15_t>(mv.begin(), mv.end()), std::vector<q15_t>(kPage + 2, 0));
  auto want = std::vector<q15_t>(kN, 0);
  want[kPage - 1] = 9;
  EXPECT_EQ(contents(m), want);
}

TEST(MemoryRegion, CloneOfAShortPrefixOntoADirtySlabReadsZerosAboveIt) {
  constexpr std::size_t kN = 5 * kPage;
  MemoryRegion tpl(MemKind::kFram, kN);
  tpl.alloc(8, "w");
  tpl.poke(3, 42);  // the template's prefix is one page
  MemoryRegion dst(MemKind::kFram, kN, dirty_slab(kN, 0x5555));
  dst.clone_from(tpl);
  auto want = std::vector<q15_t>(kN, 0);
  want[3] = 42;
  EXPECT_EQ(contents(dst), want);
  EXPECT_EQ(dst.allocated_words(), 8u);
  EXPECT_EQ(contents(tpl), want);
}

TEST(MemoryRegion, ScrambleAfterPartialZeroingIsTheEagerFill) {
  constexpr std::size_t kN = 2 * kPage + 3;  // the fill's tail is a partial draw
  for (const bool recycled : {false, true}) {
    MemoryRegion m = recycled ? MemoryRegion(MemKind::kSram, kN, dirty_slab(kN, 0x7777))
                              : MemoryRegion(MemKind::kSram, kN);
    m.poke(5, 1);  // zeroes the first page only
    Rng rng(21);
    m.scramble(rng);
    EXPECT_EQ(contents(m), expected_fill(Rng(21).next_u64(), kN)) << "recycled=" << recycled;
  }
}

TEST(MemoryRegion, FillsDoesNotCountZeroing) {
  constexpr std::size_t kN = 3 * kPage;
  MemoryRegion m(MemKind::kSram, kN);
  m.peek(0);
  m.poke(kPage + 1, 4);
  (void)m.view(0, kN);
  EXPECT_EQ(m.fills(), 0);
  Rng rng(2);
  m.scramble(rng);
  m.peek(kN - 1);
  EXPECT_EQ(m.fills(), 1);
}

TEST(MemoryRegion, ScramblingFramIsAnError) {
  MemoryRegion m(MemKind::kFram, 16);
  m.poke(3, 1234);
  Rng rng(1);
  EXPECT_THROW(m.scramble(rng), Error);
  EXPECT_EQ(m.peek(3), 1234);
}

TEST(Device, GeometryDefaults) {
  Device d;
  EXPECT_EQ(d.sram().size_bytes(), 8u * 1024u);   // 8 KB SRAM
  EXPECT_EQ(d.fram().size_bytes(), 256u * 1024u); // 256 KB FRAM
}

TEST(Device, EnergyAndCyclesAccumulate) {
  Device d;
  const double e0 = d.trace().total_energy();
  d.cpu_ops(100);
  EXPECT_GT(d.trace().total_energy(), e0);
  EXPECT_DOUBLE_EQ(d.trace().total_cycles(), 100.0);
  EXPECT_DOUBLE_EQ(d.elapsed_seconds(), 100.0 / d.cost().cpu_hz);
}

TEST(Device, RailBreakdownSumsToTotal) {
  Device d;
  d.cpu_ops(10);
  d.write(MemKind::kSram, 0, 1);
  d.write(MemKind::kFram, 0, 1);
  d.dma_copy(MemKind::kFram, 0, MemKind::kSram, 1, 4);
  double sum = 0.0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(Rail::kCount); ++r) {
    sum += d.trace().energy(static_cast<Rail>(r));
  }
  EXPECT_NEAR(sum, d.trace().total_energy(), 1e-18);
}

TEST(Device, FramWriteCostsMoreThanSram) {
  Device a, b;
  a.write(MemKind::kSram, 0, 1);
  b.write(MemKind::kFram, 0, 1);
  EXPECT_GT(b.trace().total_energy(), a.trace().total_energy());
}

TEST(Device, DmaCopiesData) {
  Device d;
  for (Addr i = 0; i < 8; ++i) d.fram().poke(i, static_cast<q15_t>(100 + i));
  d.dma_copy(MemKind::kFram, 0, MemKind::kSram, 16, 8);
  for (Addr i = 0; i < 8; ++i) EXPECT_EQ(d.sram().peek(16 + i), 100 + i);
}

TEST(Device, DmaCheaperThanCpuLoopForBulk) {
  Device a, b;
  constexpr std::size_t kWords = 64;
  a.dma_copy(MemKind::kFram, 0, MemKind::kSram, 0, kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    b.cpu_ops(2);
    b.write(MemKind::kSram, i, b.read(MemKind::kFram, i));
  }
  EXPECT_LT(a.trace().total_cycles(), b.trace().total_cycles());
  EXPECT_LT(a.trace().total_energy(), b.trace().total_energy());
}

TEST(Device, LeaMacMatchesVecMac) {
  Device d;
  Rng rng(2);
  constexpr std::size_t kN = 37;
  std::vector<q15_t> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = fx::to_q15(rng.uniform(-1.0, 1.0));
    b[i] = fx::to_q15(rng.uniform(-1.0, 1.0));
    d.sram().poke(i, a[i]);
    d.sram().poke(100 + i, b[i]);
  }
  const auto ref = fx::vec_mac(a, b);
  EXPECT_EQ(d.lea_mac(0, 100, kN), ref.acc_q30);
}

TEST(Device, LeaMacFasterThanCpuMacs) {
  Device lea_dev, cpu_dev;
  constexpr std::size_t kN = 64;
  lea_dev.lea_mac(0, 100, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    cpu_dev.read(MemKind::kSram, i);
    cpu_dev.read(MemKind::kSram, 100 + i);
    cpu_dev.cpu_mac_cycles();
  }
  EXPECT_LT(lea_dev.trace().total_cycles(), cpu_dev.trace().total_cycles());
  EXPECT_LT(lea_dev.trace().total_energy(), cpu_dev.trace().total_energy());
}

TEST(Device, LeaFftMatchesDspFft) {
  Device d;
  Rng rng(3);
  constexpr std::size_t kN = 32;
  std::vector<fx::cq15> ref(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ref[i] = {fx::to_q15(rng.uniform(-0.5, 0.5)), fx::to_q15(rng.uniform(-0.5, 0.5))};
    d.sram().poke(2 * i, ref[i].re);
    d.sram().poke(2 * i + 1, ref[i].im);
  }
  const int exp_ref = dsp::fft_q15(ref, dsp::FftScaling::kBlockFloat);
  const int exp_dev = d.lea_fft(0, kN, dsp::FftScaling::kBlockFloat);
  EXPECT_EQ(exp_dev, exp_ref);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(d.sram().peek(2 * i), ref[i].re);
    EXPECT_EQ(d.sram().peek(2 * i + 1), ref[i].im);
  }
}

TEST(Device, LeaElementwiseOps) {
  Device d;
  d.sram().poke(0, fx::to_q15(0.5));
  d.sram().poke(1, fx::to_q15(-0.25));
  d.sram().poke(10, fx::to_q15(0.25));
  d.sram().poke(11, fx::to_q15(0.25));
  d.lea_add(0, 10, 20, 2);
  EXPECT_NEAR(fx::to_double(d.sram().peek(20)), 0.75, 1e-4);
  EXPECT_NEAR(fx::to_double(d.sram().peek(21)), 0.0, 1e-4);
  d.lea_mpy(0, 10, 30, 2);
  EXPECT_NEAR(fx::to_double(d.sram().peek(30)), 0.125, 1e-4);
  d.lea_shift(0, 40, 2, -1);
  EXPECT_NEAR(fx::to_double(d.sram().peek(40)), 0.25, 1e-4);
}

TEST(Device, RebootScramblesSramKeepsFram) {
  Device d;
  d.sram().poke(5, 4321);
  d.fram().poke(5, 8765);
  d.reboot();
  EXPECT_EQ(d.fram().peek(5), 8765);
  // SRAM is scrambled; the probability it kept its value is ~2^-16.
  // Check a batch of addresses to make flakiness negligible.
  d.sram().poke(1, 1111);
  d.sram().poke(2, 2222);
  d.sram().poke(3, 3333);
  d.reboot();
  const bool all_kept = d.sram().peek(1) == 1111 && d.sram().peek(2) == 2222 &&
                        d.sram().peek(3) == 3333;
  EXPECT_FALSE(all_kept);
  EXPECT_EQ(d.reboots(), 2);
}

TEST(Device, RebootFillsSramOnlyWhenItIsRead) {
  Device d;
  d.reboot();
  d.reboot();
  EXPECT_EQ(d.sram_fills(), 0);
  d.sram().peek(0);
  d.sram().peek(1);
  EXPECT_EQ(d.sram_fills(), 1);
  d.reboot();
  EXPECT_EQ(d.sram_fills(), 1);
}

TEST(Device, BrownOutLatchesFromSupply) {
  // A capacitor too small to fund the requested work browns out.
  power::ConstantSource src(0.0);  // no harvest
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1e-7;  // tiny: ~0.6 uJ usable
  power::CapacitorSupply supply(src, cfg);
  Device d;
  d.attach_supply(&supply);
  EXPECT_FALSE(d.browned_out());
  for (int i = 0; i < 100000 && !d.browned_out(); ++i) d.cpu_ops(100);
  EXPECT_TRUE(d.browned_out());
  EXPECT_FALSE(supply.on());
}

TEST(Device, DmaTornByBrownOutLeavesPrefix) {
  power::ConstantSource src(0.0);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1e-7;
  power::CapacitorSupply supply(src, cfg);
  Device d;
  for (Addr i = 0; i < 512; ++i) d.sram().poke(i, 77);
  for (Addr i = 0; i < 512; ++i) d.fram().poke(1000 + i, 0);
  d.attach_supply(&supply);
  // Repeat transfers until the capacitor dies mid-copy.
  for (int rep = 0; rep < 100000 && !d.browned_out(); ++rep) {
    d.dma_copy(MemKind::kSram, 0, MemKind::kFram, 1000, 512);
  }
  EXPECT_TRUE(d.browned_out());
  std::size_t copied = 0;
  for (Addr i = 0; i < 512; ++i) copied += d.fram().peek(1000 + i) == 77 ? 1u : 0u;
  // Some prefix landed; word-granular effects mean no garbage values.
  EXPECT_GT(copied, 0u);
}

// Every costed op on a latched device is inert: no trace charge, no
// supply draw, no memory effect. reboot() clears the latch.
TEST(Device, LatchedOpsAreInert) {
  power::ConstantSource src(1e-3);  // enough income to recharge
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1e-7;
  power::CapacitorSupply supply(src, cfg);
  Device d;
  for (Addr i = 0; i < 512; ++i) d.sram().poke(i, static_cast<q15_t>(i % 97 + 1));
  for (Addr i = 0; i < 512; ++i) d.fram().poke(i, static_cast<q15_t>(i % 89 + 1));
  d.attach_supply(&supply);
  for (int i = 0; i < 100000 && !d.browned_out(); ++i) d.cpu_ops(100);
  ASSERT_TRUE(d.browned_out());

  const double energy = d.trace().total_energy();
  const double cycles = d.trace().total_cycles();
  const double volts = supply.voltage();
  const double now = supply.now();
  const long fills = d.sram_fills();
  std::vector<q15_t> sram(512), fram(512);
  for (Addr i = 0; i < 512; ++i) {
    sram[i] = d.sram().peek(i);
    fram[i] = d.fram().peek(i);
  }
  const auto expect_inert = [&](const char* op) {
    EXPECT_TRUE(d.browned_out()) << op;
    EXPECT_EQ(d.trace().total_energy(), energy) << op;
    EXPECT_EQ(d.trace().total_cycles(), cycles) << op;
    EXPECT_EQ(supply.voltage(), volts) << op;
    EXPECT_EQ(supply.now(), now) << op;
    EXPECT_EQ(d.sram_fills(), fills) << op;
    for (Addr i = 0; i < 512; ++i) {
      ASSERT_EQ(d.sram().peek(i), sram[i]) << op << " SRAM word " << i;
      ASSERT_EQ(d.fram().peek(i), fram[i]) << op << " FRAM word " << i;
    }
  };

  std::vector<q15_t> buf(32, 5);
  const std::vector<std::uint32_t> offsets{0, 3, 7, 9};
  std::vector<q15_t> gathered(offsets.size());
  for (const MemKind mem : {MemKind::kSram, MemKind::kFram}) {
    d.read(mem, 10);
    expect_inert("read");
    d.write(mem, 10, -3);
    expect_inert("write");
    d.read_block(mem, 20, buf);
    expect_inert("read_block");
    d.write_block(mem, 20, buf);
    expect_inert("write_block");
    d.read_gather(mem, 40, offsets, 10, gathered);
    expect_inert("read_gather");
    d.cpu_copy(mem, 0, MemKind::kFram, 100, 64);
    expect_inert("cpu_copy");
    d.dma_copy(mem, 0, MemKind::kSram, 200, 64);
    expect_inert("dma_copy");
  }
  d.lea_mac(0, 64, 32);
  expect_inert("lea_mac");
  d.cpu_ops(1000);
  expect_inert("cpu_ops");
  d.cpu_mac_cycles();
  expect_inert("cpu_mac_cycles");
  d.lea_add(0, 64, 128, 32);
  expect_inert("lea_add");
  d.lea_mpy(0, 64, 128, 32);
  expect_inert("lea_mpy");
  d.lea_shift(0, 128, 32, 1);
  expect_inert("lea_shift");
  d.lea_cmul(0, 64, 128, 16);
  expect_inert("lea_cmul");
  d.lea_fft(256, 32, dsp::FftScaling::kBlockFloat);
  expect_inert("lea_fft");
  d.lea_ifft(256, 32, dsp::FftScaling::kBlockFloat);
  expect_inert("lea_ifft");
  d.sample_voltage();
  expect_inert("sample_voltage");
  d.settle_supply();
  expect_inert("settle_supply");

  supply.recharge_to_on();
  d.reboot();
  EXPECT_FALSE(d.browned_out());
  EXPECT_GT(d.trace().total_cycles(), cycles);  // the boot sequence is charged
  d.write(MemKind::kFram, 10, -3);
  EXPECT_EQ(d.fram().peek(10), -3);
}

TEST(Device, VoltageSampleCostsCycles) {
  power::ContinuousPower supply;
  Device d;
  d.attach_supply(&supply);
  const double c0 = d.trace().total_cycles();
  EXPECT_DOUBLE_EQ(d.sample_voltage(), 3.3);
  EXPECT_GT(d.trace().total_cycles(), c0);
}

TEST(EnergyTrace, SnapshotDelta) {
  EnergyTrace t;
  t.add(Rail::kCpu, 1.0, 10.0);
  const auto s = t.snapshot();
  t.add(Rail::kLea, 2.0, 20.0);
  const auto d = t.delta(s);
  EXPECT_DOUBLE_EQ(d.energy, 2.0);
  EXPECT_DOUBLE_EQ(d.cycles, 20.0);
}

TEST(CostModel, FftCyclesScaleNLogN) {
  Device d;
  Device d2;
  d.lea_fft(0, 64, dsp::FftScaling::kFixedScale);
  d2.lea_fft(0, 128, dsp::FftScaling::kFixedScale);
  const double c64 = d.trace().cycles(Rail::kLea);
  const double c128 = d2.trace().cycles(Rail::kLea);
  // 128 log 128 / 64 log 64 = (64*7)/(32*6) ~ 2.33
  EXPECT_NEAR(c128 / c64, (64.0 * 7.0 * 4.0 + 40.0) / (32.0 * 6.0 * 4.0 + 40.0), 0.01);
}

}  // namespace
}  // namespace ehdnn::dev
