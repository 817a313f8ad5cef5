// Scheduler-contract enumeration tests: the bounded grid closes with zero
// violations, the report is byte-identical for any worker count, world
// lines round-trip bit-exactly, and the closure stats prove the grid
// actually exercises every contract path (skips of both stages, the probe
// valve, demotions, forecast locks, and both stability modes) — an
// all-green sweep over worlds that never admit-gate or never demote would
// be vacuous, not reassuring. CONTRACTS.md records the formal statements.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sched/contracts.h"
#include "util/check.h"

namespace ehdnn::sched::contract {
namespace {

std::string report_text(const Report& rep, const std::string& name) {
  std::ostringstream os;
  write_report(os, rep, name);
  return os.str();
}

TEST(ContractEnum, BoundedGridClosesWithZeroViolations) {
  const Report rep = check_depth(Depth::kBounded, 2);
  for (const Violation& v : rep.violations) {
    ADD_FAILURE() << "C" << v.contract << " :: " << v.world << " :: " << v.detail;
  }
  EXPECT_TRUE(rep.pass());
}

TEST(ContractEnum, ReportByteIdenticalAcrossWorkerCounts) {
  const Report r1 = check_depth(Depth::kBounded, 1);
  const Report r4 = check_depth(Depth::kBounded, 4);
  EXPECT_EQ(report_text(r1, "bounded"), report_text(r4, "bounded"));
}

TEST(ContractEnum, BoundedGridExercisesEveryContractPath) {
  const Report rep = check_depth(Depth::kBounded, 2);
  const Stats& s = rep.stats;
  // CONTRACT-1: both admission stages fire, and both twin verdicts occur.
  EXPECT_GT(s.worlds, 100);
  EXPECT_GT(s.skips_stage1, 0);
  EXPECT_GT(s.skips_stage2, 0);
  EXPECT_GT(s.met_budget, 0);
  EXPECT_LT(s.met_budget, s.jobs);  // some jobs miss: deadlines do bite
  // CONTRACT-2: skip streaks scanned for the probe valve, and the relock
  // worlds both drop the stale lock and re-lock onto the new truth.
  EXPECT_GT(s.skip_streaks, 0);
  EXPECT_GT(s.relock_worlds, 0);
  EXPECT_EQ(s.relock_drops, s.relock_worlds);
  EXPECT_EQ(s.relock_relocks, s.relock_worlds);
  EXPECT_LE(s.relock_max_periods, 20);
  // CONTRACT-3: decisions logged, demotions taken, and both stability
  // checks see comparable pairs.
  EXPECT_GT(s.decisions, s.jobs / 2);
  EXPECT_GT(s.demotes, 0);
  EXPECT_GT(s.income_pairs, 0);
  EXPECT_GT(s.deadline_seqs, 0);
}

TEST(ContractEnum, WorldLinesRoundTripBitExactly) {
  for (const World& w : world_grid(Depth::kFull)) {
    const std::string line = serialize_world(w);
    const World back = parse_world(line);
    EXPECT_EQ(serialize_world(back), line);
    EXPECT_EQ(back.source, w.source);
    EXPECT_EQ(back.cap_f, w.cap_f);
    EXPECT_EQ(back.v_on, w.v_on);
    EXPECT_EQ(back.period_s, w.period_s);
    EXPECT_EQ(back.deadline_s, w.deadline_s);
    EXPECT_EQ(back.jobs, w.jobs);
    EXPECT_EQ(back.sched, w.sched);
  }
  for (const RelockWorld& w : relock_grid(Depth::kFull)) {
    const std::string line = serialize_world(w);
    const RelockWorld back = parse_relock_world(line);
    EXPECT_EQ(serialize_world(back), line);
    EXPECT_EQ(back.p1_s, w.p1_s);
    EXPECT_EQ(back.p2_s, w.p2_s);
  }
}

TEST(ContractEnum, MalformedWorldLinesThrow) {
  EXPECT_THROW(parse_world(""), Error);
  EXPECT_THROW(parse_world("world id=0"), Error);  // missing fields
  EXPECT_THROW(parse_world("relock id=0 p1=0.4 p2=0.8 hi=3e-3 lo=5e-5"), Error);
  EXPECT_THROW(parse_world(
                   "world id=0 src=const:w=1e-3 cap=zap von=3.3 period=0.4 dl=0.3 "
                   "jobs=6 sched=adaptive:sel=deadline,admit=budget"),
               Error);
  EXPECT_THROW(parse_relock_world("relock id=0 p1=0.4"), Error);
  EXPECT_THROW(parse_relock_world("world id=0"), Error);
  // Repeated, missing and non-finite keys are rejected, and the error
  // names the key: a duplicate id cannot stand in for a missing cap.
  const struct {
    const char* line;
    const char* error;
  } named[] = {
      {"world id=0 id=0 src=const:w=1e-3 von=3.3 period=0.4 dl=0.3 jobs=6 "
       "sched=adaptive:sel=deadline,admit=budget",
       "duplicate key \"id\""},
      {"world id=0 src=const:w=1e-3 von=3.3 period=0.4 dl=0.3 jobs=6 "
       "sched=adaptive:sel=deadline,admit=budget",
       "missing key \"cap\""},
      {"world id=0 src=const:w=1e-3 cap=inf von=3.3 period=0.4 dl=0.3 jobs=6 "
       "sched=adaptive:sel=deadline,admit=budget",
       "bad number for cap"},
      {"relock id=0 p1=0.4 p2=0.8 hi=inf lo=5e-5", "bad number for hi"},
  };
  for (const auto& row : named) {
    try {
      if (std::string(row.line).starts_with("relock")) {
        parse_relock_world(row.line);
      } else {
        parse_world(row.line);
      }
      ADD_FAILURE() << row.line << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << row.line << ": " << e.what();
    }
  }
}

TEST(ContractEnum, RunWorldReportsPerJobTwinEvidence) {
  // The empirically-verified stage-2 recipe (see CONTRACTS.md): a lock
  // world whose periodic forecaster confirms the square's period mid-run
  // and then refuses lo-phase releases, bounded by the probe valve.
  World w;
  w.id = -1;
  w.source = "square:hi=2e-3,lo=0.2e-3,period=0.4,duty=0.5";
  w.cap_f = 0.33e-6;
  w.v_on = 3.0;
  w.period_s = 0.07;
  w.deadline_s = 0.021;
  w.jobs = 40;
  w.sched = "adaptive:sel=deadline,admit=budget,fc=periodic,conf=0.55,probe=2";
  const WorldResult res = run_world(w);
  ASSERT_EQ(res.jobs.size(), 40u);
  int stage2 = 0;
  int max_streak = 0;
  int streak = 0;
  for (const JobOutcome& o : res.jobs) {
    if (o.budget_skipped && o.budget_stage == 2) {
      ++stage2;
      ++streak;
    } else {
      max_streak = std::max(max_streak, streak);
      streak = 0;
    }
  }
  max_streak = std::max(max_streak, streak);
  EXPECT_GT(stage2, 0);
  // probe=2: the valve admits every release once two consecutive skips
  // have accrued, so no pure stage-2 streak can reach length 3.
  EXPECT_LE(max_streak, 2);
  EXPECT_FALSE(res.budget_decisions.empty());
  // The run crossed the lock: some decision carries a confirmed period.
  bool locked = false;
  for (const auto& d : res.budget_decisions) locked = locked || d.fc_period_s > 0.0;
  EXPECT_TRUE(locked);
}

TEST(ContractEnum, FixtureCalibrationOrdersTheLadder) {
  const CompletionModel& cm = fixture_completion_model();
  const auto* base = cm.tier("base");
  const auto* flex = cm.tier("flex");
  const auto* tile = cm.tier("tile");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(flex, nullptr);
  ASSERT_NE(tile, nullptr);
  // The grid axes lean on this geometry: compressed tiers cost ~5 uJ and
  // the persistent ladder costs strictly more (checkpoint traffic).
  EXPECT_GT(base->energy_j, 1e-6);
  EXPECT_LT(base->energy_j, 20e-6);
  EXPECT_GT(flex->energy_j, base->energy_j);
  EXPECT_GT(tile->energy_j, flex->energy_j);
}

}  // namespace
}  // namespace ehdnn::sched::contract
