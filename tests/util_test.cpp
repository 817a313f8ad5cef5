#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/math.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"

namespace ehdnn {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "boom");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Check, FailAlwaysThrows) { EXPECT_THROW(fail("nope"), Error); }

TEST(ParallelFor, RunsEveryIndexOnceOnValidWorkers) {
  for (const std::size_t n : {0u, 1u, 37u}) {
    for (const int jobs : {0, 1, 3, 64}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> bad_worker{0};
      parallel_for(n, jobs, [&](std::size_t i, int worker) {
        ++hits[i];
        if (worker < 0 || worker >= std::max(jobs, 1)) ++bad_worker;
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << n << "/" << jobs << " @" << i;
      EXPECT_EQ(bad_worker, 0);
    }
  }
}

TEST(ParallelFor, RethrowsAWorkerException) {
  for (const int jobs : {1, 4}) {
    EXPECT_THROW(parallel_for(100, jobs,
                              [](std::size_t i, int) {
                                if (i == 42) fail("index 42");
                              }),
                 Error);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, GaussMoments) {
  Rng r(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = r.gauss();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, BelowBounds) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng r(19);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(Math, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(128), 7);
  EXPECT_EQ(ilog2(255), 7);  // floor
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(3520), 4096u);
}

TEST(Math, DivCeil) {
  EXPECT_EQ(div_ceil(10, 5), 2u);
  EXPECT_EQ(div_ceil(11, 5), 3u);
  EXPECT_EQ(div_ceil(1, 5), 1u);
}

// parse_int rejects junk, non-finite, fractional and out-of-range fields
// and accepts lo and hi themselves. Bounds [1, 4096]: the tile spec's t.
TEST(ParseInt, TableAgainstBounds) {
  struct Row {
    const char* field;
    std::optional<int> want;
  };
  const Row rows[] = {
      {"nan", std::nullopt},  {"inf", std::nullopt},   {"-inf", std::nullopt},
      {"2.5", std::nullopt},  {"1e30", std::nullopt}, {"-1", std::nullopt},
      {"0", std::nullopt},    {"1", 1},               {"4096", 4096},
      {"4097", std::nullopt}, {"1e3", 1000},          {"0x10", 16},
      {" 7 ", 7},             {"7x", std::nullopt},   {"", std::nullopt},
      {"-", std::nullopt},    {"+3", 3},              {"abc", std::nullopt},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(parse_int(r.field, 1, 4096), r.want) << "\"" << r.field << "\"";
  }
}

TEST(ParseInt, FullWidthBoundsAreExact) {
  constexpr auto kU64 = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_int("18446744073709551615", std::uint64_t{0}, kU64), kU64);
  EXPECT_EQ(parse_int("0xffffffffffffffff", std::uint64_t{0}, kU64), kU64);
  EXPECT_EQ(parse_int("18446744073709551616", std::uint64_t{0}, kU64), std::nullopt);
  EXPECT_EQ(parse_int("-1", std::uint64_t{0}, kU64), std::nullopt);  // no wrap
  constexpr int kI = std::numeric_limits<int>::max();
  EXPECT_EQ(parse_int("2147483647", 1, kI), kI);
  EXPECT_EQ(parse_int("2147483648", 1, kI), std::nullopt);
  EXPECT_EQ(parse_int("4294967297", 1, kI), std::nullopt);  // no truncation to 1
  constexpr long long kMin = std::numeric_limits<long long>::min();
  EXPECT_EQ(parse_int("-9223372036854775808", kMin, 0LL), kMin);
  EXPECT_EQ(parse_int("-9223372036854775809", kMin, 0LL), std::nullopt);
  // Reals must be exactly representable: past 2^53, write the integer.
  EXPECT_EQ(parse_int("9007199254740992.0", 0LL, 1LL << 60), 9007199254740992LL);
  EXPECT_EQ(parse_int("1.8e16", 0LL, 1LL << 60), std::nullopt);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| x "), std::string::npos);
}

TEST(Table, NumAndPct) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.9375, 2), "93.75%");
}

}  // namespace
}  // namespace ehdnn
