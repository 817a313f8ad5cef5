// CliParser error-path tests: the option table drives every tool CLI
// (scenario_runner, fleet_runner, contract_checker), so a malformed
// command line must exit 2 with the outputs untouched, terminal flags
// must exit 0 before the tool runs, and the --help text must stay in
// lock-step with the table (it IS the table — the golden test pins the
// rendering, not a hand-maintained copy).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/cli.h"
#include "util/parse.h"

namespace ehdnn {
namespace {

// parse() takes char**; build a mutable argv from string literals.
int run(CliParser& p, std::vector<std::string> args) {
  std::vector<std::string> storage;
  storage.emplace_back("prog");
  for (auto& a : args) storage.push_back(std::move(a));
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EmptyCommandLineContinues) {
  CliParser p("t", "s");
  EXPECT_EQ(run(p, {}), -1);
}

TEST(Cli, UnknownOptionExits2) {
  CliParser p("t", "s");
  EXPECT_EQ(run(p, {"--nope"}), 2);
}

TEST(Cli, MissingValueExits2) {
  std::string out;
  CliParser p("t", "s");
  p.str("--out", "FILE", "output", &out);
  EXPECT_EQ(run(p, {"--out"}), 2);
  EXPECT_TRUE(out.empty());
}

TEST(Cli, BareArgumentWithoutPositionalsExits2) {
  CliParser p("t", "s");
  EXPECT_EQ(run(p, {"stray"}), 2);
}

// int_min and seed parse through parse_int (util/parse.h): junk, non-finite,
// fractional and out-of-range values exit 2 without writing through.
TEST(Cli, IntMinRejectsGarbageAndBelowMin) {
  const std::pair<const char*, std::optional<int>> rows[] = {
      {"zap", {}},        {"4x", {}},          {"nan", {}}, {"inf", {}},
      {"2.5", {}},        {"1e30", {}},        {"-1", {}},  {"0", {}},
      {"1", 1},           {"4", 4},            {"2147483647", 2147483647},
      {"2147483648", {}}, {"4294967297", {}},
  };
  for (const auto& [arg, want] : rows) {
    int jobs = 7;
    CliParser p("t", "s");
    p.int_min("--jobs", "N", "workers", &jobs, 1);
    EXPECT_EQ(run(p, {"--jobs", arg}), want ? -1 : 2) << arg;
    EXPECT_EQ(jobs, want.value_or(7)) << arg;
  }
}

TEST(Cli, NumRejectsGarbage) {
  double v = 1.5;
  CliParser p("t", "s");
  p.num("--scale", "X", "scale", &v);
  EXPECT_EQ(run(p, {"--scale", "fast"}), 2);
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_EQ(run(p, {"--scale", "2.5e-3"}), -1);
  EXPECT_DOUBLE_EQ(v, 2.5e-3);
}

TEST(Cli, SeedAcceptsHexRejectsGarbage) {
  const std::pair<const char*, std::optional<std::uint64_t>> rows[] = {
      {"0x5eed", 0x5eed},
      {"12ab", {}},  // decimal with junk, not 0x-hex
      {"abc", {}},
      {"nan", {}},
      {"2.5", {}},
      {"-1", {}},  // no wrap to 2^64 - 1
      {"1e30", {}},
      {"0", 0},
      {"18446744073709551615", 18446744073709551615u},
      {"18446744073709551616", {}},
  };
  for (const auto& [arg, want] : rows) {
    std::uint64_t s = 1;
    CliParser p("t", "s");
    p.seed("--seed", "S", "rng seed", &s);
    EXPECT_EQ(run(p, {"--seed", arg}), want ? -1 : 2) << arg;
    EXPECT_EQ(s, want.value_or(1)) << arg;
  }
}

// fleet_runner --trace-devices and scenario_runner --trace-cells both
// read their ids through parse_id_list: an empty item is an error in
// both, not silently skipped.
TEST(Cli, IdListRejectsEmptyAndMalformedItems) {
  const std::pair<const char*, std::optional<std::vector<int>>> rows[] = {
      {"0,8,12", std::vector<int>{0, 8, 12}},
      {"5", std::vector<int>{5}},
      {"0,,3", {}},
      {"0,3,", {}},
      {",0", {}},
      {"", {}},
      {"-1", {}},
      {"1.5", {}},
      {"2,x", {}},
      {"2147483648", {}},
  };
  for (const auto& [arg, want] : rows) EXPECT_EQ(parse_id_list(arg), want) << arg;
}

TEST(Cli, DuplicateOptionLastWins) {
  // Occurrences apply in order — the repeated flag overwrites, which is
  // what lets wrapper scripts append overrides to a base command line.
  std::string out;
  int jobs = 0;
  CliParser p("t", "s");
  p.str("--out", "FILE", "output", &out).int_min("--jobs", "N", "workers", &jobs, 1);
  EXPECT_EQ(run(p, {"--out", "a.json", "--jobs", "2", "--out", "b.json"}), -1);
  EXPECT_EQ(out, "b.json");
  EXPECT_EQ(jobs, 2);
}

TEST(Cli, MalformedEarlierOptionStopsBeforeLaterOnes) {
  std::string out;
  CliParser p("t", "s");
  int jobs = 0;
  p.int_min("--jobs", "N", "workers", &jobs, 1).str("--out", "FILE", "output", &out);
  EXPECT_EQ(run(p, {"--jobs", "bad", "--out", "x.json"}), 2);
  EXPECT_TRUE(out.empty());  // parsing stopped at the diagnostic
}

TEST(Cli, TerminalFlagExits0AndSkipsTheRest) {
  bool listed = false;
  int jobs = 0;
  CliParser p("t", "s");
  p.terminal("--list", "list things", [&]() { listed = true; })
      .int_min("--jobs", "N", "workers", &jobs, 1);
  EXPECT_EQ(run(p, {"--list", "--jobs", "nonsense"}), 0);
  EXPECT_TRUE(listed);
  EXPECT_EQ(jobs, 0);  // everything after the terminal flag is ignored
}

TEST(Cli, ToggleAndFlagRun) {
  bool quiet = false;
  int hits = 0;
  CliParser p("t", "s");
  p.toggle("--quiet", "hush", &quiet).flag("--bump", "count", [&]() { ++hits; });
  EXPECT_EQ(run(p, {"--quiet", "--bump", "--bump"}), -1);
  EXPECT_TRUE(quiet);
  EXPECT_EQ(hits, 2);
}

TEST(Cli, PositionalsCollectBareArguments) {
  std::vector<std::string> got;
  std::string out;
  CliParser p("t", "s");
  p.str("--out", "FILE", "output", &out)
      .positionals("SHARD", "shard files", [&](const std::string& v) { got.push_back(v); });
  EXPECT_EQ(run(p, {"a.bin", "--out", "m.json", "b.bin"}), -1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "a.bin");
  EXPECT_EQ(got[1], "b.bin");
  EXPECT_EQ(out, "m.json");
}

TEST(Cli, ValueCallbackErrorExits2) {
  CliParser p("t", "s");
  p.value("--depth", "D", "depth", [](const std::string& v) {
    check(v == "bounded" || v == "full", "--depth must be bounded or full");
  });
  EXPECT_EQ(run(p, {"--depth", "sideways"}), 2);
  EXPECT_EQ(run(p, {"--depth", "full"}), -1);
}

TEST(Cli, HelpGolden) {
  std::string out;
  int jobs = 1;
  CliParser p("demo", "One-line demo summary.");
  p.str("--out", "FILE", "write the report to FILE", &out)
      .int_min("--jobs", "N", "worker threads", &jobs, 1)
      .flag("--quiet", "suppress progress output", []() {})
      .positionals("INPUT", "input shards to merge", [](const std::string&) {});
  std::ostringstream os;
  p.print_help(os);
  EXPECT_EQ(os.str(),
            "usage: demo [options] [INPUT...]\n"
            "\n"
            "One-line demo summary.\n"
            "\n"
            "options:\n"
            "  --out FILE  write the report to FILE\n"
            "  --jobs N    worker threads\n"
            "  --quiet     suppress progress output\n"
            "  INPUT...    input shards to merge\n"
            "  --help      show this message\n");
}

TEST(Cli, HelpFlagExits0) {
  CliParser p("t", "s");
  EXPECT_EQ(run(p, {"--help"}), 0);
  EXPECT_EQ(run(p, {"-h"}), 0);
}

TEST(Cli, OversizedMetavarWrapsInsteadOfWideningTheColumn) {
  CliParser p("demo", "s");
  p.value("--spec", "KIND:k=v[,k=v...]_with_a_very_long_grammar", "spec grammar",
          [](const std::string&) {})
      .flag("--quiet", "hush", []() {});
  std::ostringstream os;
  p.print_help(os);
  const std::string text = os.str();
  // The long head gets its own line; the short option keeps a tight column.
  EXPECT_NE(text.find("  --spec KIND:k=v[,k=v...]_with_a_very_long_grammar\n"),
            std::string::npos);
  EXPECT_NE(text.find("  --quiet  hush\n"), std::string::npos);
}

}  // namespace
}  // namespace ehdnn
