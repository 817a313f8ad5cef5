// Coverage for the power-trace CSV parser, the TraceHarvestSource replay
// semantics (interpolation, looping, wrap-around), the harvest-source
// spec factory, and the scenario-spec argument grammar.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "power/factory.h"
#include "power/trace.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/rng.h"

namespace ehdnn::power {
namespace {

PowerTrace parse(const std::string& csv) {
  std::istringstream in(csv);
  return parse_trace_csv(in, "<test>");
}

TEST(TraceCsv, ParsesRowsHeaderAndComments) {
  const auto tr = parse(
      "# a comment\n"
      "time_s,power_w\n"
      "\n"
      "0.0,1e-3\n"
      "  0.5 , 2e-3 \n"  // whitespace around fields is fine
      "1.0,0\n");
  ASSERT_EQ(tr.points.size(), 3u);
  EXPECT_DOUBLE_EQ(tr.points[0].watts, 1e-3);
  EXPECT_DOUBLE_EQ(tr.points[1].t, 0.5);
  EXPECT_DOUBLE_EQ(tr.span_s(), 1.0);
}

TEST(TraceCsv, EmptyFileThrows) {
  EXPECT_THROW(parse(""), UserError);
  EXPECT_THROW(parse("# only comments\n\n"), UserError);
  EXPECT_THROW(parse("time_s,power_w\n"), UserError);  // header, no samples
}

TEST(TraceCsv, MalformedRowsThrow) {
  EXPECT_THROW(parse("0.0,1e-3\nbogus,2e-3\n"), UserError);      // bad time
  EXPECT_THROW(parse("0.0,1e-3\n0.5,watts\n"), UserError);       // bad power
  EXPECT_THROW(parse("0.0,1e-3\n0.5\n"), UserError);             // missing field
  EXPECT_THROW(parse("0.0,1e-3\n0.5,2e-3 trailing\n"), UserError);
  EXPECT_THROW(parse("0.0,1e-3\n0.5,-2e-3\n"), UserError);       // negative power
  EXPECT_THROW(parse("0.0,1e-3\n0.5,inf\n"), UserError);         // non-finite
  // A second header mid-file is a malformed row, not a header.
  EXPECT_THROW(parse("0.0,1e-3\ntime_s,power_w\n"), UserError);
  // Only ONE leading non-numeric row is tolerated (the header): a file
  // with a systematically wrong delimiter must throw, not silently
  // degrade to whatever rows happen to contain a comma.
  EXPECT_THROW(parse("0.0;1e-3\n0.5;2e-3\n1.0,5e-3\n"), UserError);
  EXPECT_THROW(parse("time_s,power_w\nunits,mw\n0.0,1e-3\n"), UserError);
  // A row that starts numerically is data, never a header: a typo in the
  // FIRST sample of a headerless trace must throw, not drop the sample.
  EXPECT_THROW(parse("0.0,1e-3x\n0.5,2e-3\n"), UserError);
  EXPECT_THROW(parse("0.0;1e-3\n0.5,2e-3\n"), UserError);
}

TEST(TraceCsv, NonMonotonicTimestampsThrow) {
  EXPECT_THROW(parse("0.0,1e-3\n0.5,2e-3\n0.4,3e-3\n"), UserError);  // decreasing
  EXPECT_THROW(parse("0.0,1e-3\n0.0,2e-3\n"), UserError);            // duplicate
}

TEST(TraceCsv, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/definitely_not_here.csv"), UserError);
}

TEST(TraceSourceReplay, LinearInterpolation) {
  TraceHarvestSource s(parse("0.0,0\n1.0,4e-3\n"), TraceInterp::kLinear, /*loop=*/false);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.power_at(0.25), 1e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 2e-3);
  EXPECT_DOUBLE_EQ(s.power_at(1.0), 4e-3);
  EXPECT_DOUBLE_EQ(s.power_at(5.0), 4e-3);  // no loop: holds the last sample
  EXPECT_DOUBLE_EQ(s.power_at(-1.0), 0.0);  // before start: first sample
}

TEST(TraceSourceReplay, ZeroOrderHold) {
  TraceHarvestSource s(parse("0.0,1e-3\n0.5,3e-3\n1.0,0\n"),
                       TraceInterp::kZeroOrderHold, /*loop=*/false);
  EXPECT_DOUBLE_EQ(s.power_at(0.2), 1e-3);   // holds the 0.0 sample
  EXPECT_DOUBLE_EQ(s.power_at(0.499), 1e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 3e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.7), 3e-3);
  EXPECT_DOUBLE_EQ(s.power_at(2.0), 0.0);
}

TEST(TraceSourceReplay, LoopWrapAround) {
  // Span 1.0 s: power_at(t) must equal power_at(t + k * span) for any k,
  // including far past the recording and for negative t.
  TraceHarvestSource s(parse("0.0,1e-3\n0.5,3e-3\n1.0,1e-3\n"), TraceInterp::kLinear,
                       /*loop=*/true);
  for (double t : {0.0, 0.1, 0.25, 0.49, 0.5, 0.75, 0.999}) {
    // fmod introduces ~1 ulp of phase error on wrapped times.
    EXPECT_NEAR(s.power_at(t), s.power_at(t + 1.0), 1e-12) << t;
    EXPECT_NEAR(s.power_at(t), s.power_at(t + 7.0), 1e-12) << t;
    EXPECT_NEAR(s.power_at(t), s.power_at(t - 3.0), 1e-12) << t;
  }
  // Interpolation still works inside a wrapped period.
  EXPECT_DOUBLE_EQ(s.power_at(4.25), 2e-3);
}

TEST(TraceSourceReplay, NonZeroStartTimeIsNormalized) {
  // Trace recorded from t=10: replay still starts at its first sample.
  TraceHarvestSource s(parse("10.0,1e-3\n10.5,3e-3\n11.0,1e-3\n"), TraceInterp::kLinear,
                       /*loop=*/true);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 3e-3);
  EXPECT_DOUBLE_EQ(s.power_at(1.25), 2e-3);  // wrapped + interpolated
}

TEST(TraceSourceReplay, SinglePointTraceIsConstant) {
  TraceHarvestSource s(parse("0.0,2e-3\n"), TraceInterp::kLinear, /*loop=*/true);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 2e-3);
  EXPECT_DOUBLE_EQ(s.power_at(123.0), 2e-3);
}

TEST(TraceSourceReplay, ScaleMultipliesPower) {
  TraceHarvestSource s(parse("0.0,1e-3\n1.0,3e-3\n"), TraceInterp::kLinear,
                       /*loop=*/false, /*scale=*/2.0);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 4e-3);
}

// power_seek with one cursor, fed `times` in order, equals the stateless
// power_at bit for bit.
void expect_seek_matches(const HarvestSource& s, const std::vector<double>& times) {
  SourceCursor c;
  for (const double t : times) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(s.power_seek(t, c)),
              std::bit_cast<std::uint64_t>(s.power_at(t)))
        << "t = " << t;
  }
}

// A 57-point trace starting at t0, like traces/rf_office.csv.
PowerTrace random_trace(double t0, std::uint64_t seed) {
  Rng rng(seed);
  PowerTrace tr;
  double t = t0;
  for (int i = 0; i < 57; ++i) {
    tr.points.push_back({t, rng.uniform(0.0, 5e-3)});
    t += rng.uniform(0.01, 0.3);
  }
  return tr;
}

TEST(TraceSourceCursor, MatchesPowerAtAcrossLoopsSamplesAndSeams) {
  for (const double t0 : {0.0, 10.0}) {
    const PowerTrace tr = random_trace(t0, 0xc0de + static_cast<std::uint64_t>(t0));
    const double span = tr.span_s();
    // Every sample time and the seam, as a replay time, in many loop
    // cycles, each with its neighbours one ulp either side.
    std::vector<double> times;
    for (int cycle = 0; cycle < 400; ++cycle) {
      for (const TracePoint& pt : tr.points) {
        const double t = static_cast<double>(cycle) * span + (pt.t - t0);
        times.push_back(std::nextafter(t, -1e300));
        times.push_back(t);
        times.push_back(std::nextafter(t, 1e300));
      }
    }
    // Dense forward steps, like a supply settling small draws.
    for (double t = 1000.0 * span; t < 1003.0 * span; t += 1e-4) times.push_back(t);
    // Negative times and a cursor that jumps backward.
    for (const double t : {-0.25 * span, -3.5 * span, 7.0 * span, 2.0 * span, 0.5, 0.0,
                           -0.0, 1e6 * span, 3.0 * span}) {
      times.push_back(t);
    }
    for (const TraceInterp interp : {TraceInterp::kLinear, TraceInterp::kZeroOrderHold}) {
      for (const bool loop : {true, false}) {
        TraceHarvestSource s(tr, interp, loop, /*scale=*/0.7);
        expect_seek_matches(s, times);
        // Through a device's offset view, which forwards the cursor.
        expect_seek_matches(TimeOffsetSource(s, 0.123), times);
      }
    }
  }
}

TEST(TraceSourceCursor, SinglePointTraceIgnoresTheLoop) {
  TraceHarvestSource s(parse("5.0,2e-3\n"), TraceInterp::kLinear, /*loop=*/true);
  expect_seek_matches(s, {0.0, 1.0, -1.0, 1e9});
}

TEST(Factory, BuildsEveryKind) {
  EXPECT_DOUBLE_EQ(make_harvest_source("const:w=2e-3")->power_at(1.0), 2e-3);
  EXPECT_DOUBLE_EQ(make_harvest_source("square:hi=4e-3,lo=0,period=1,duty=0.5")
                       ->power_at(0.25),
                   4e-3);
  EXPECT_GT(make_harvest_source("sine:mean=2e-3,amp=1e-3,period=1")->power_at(0.25), 2e-3);
  EXPECT_GE(make_harvest_source("rf:base=0.1e-3,burst=5e-3,rate=30,dur=5e-3,seed=9")
                ->power_at(0.5),
            0.1e-3);
  EXPECT_NEAR(make_harvest_source("solar:peak=4e-3,day=1,daylight=0.5")->power_at(0.25),
              4e-3, 1e-9);
  EXPECT_DOUBLE_EQ(make_harvest_source("const")->power_at(0.0), 1e-3);  // defaults
}

TEST(Factory, RejectsBadSpecs) {
  EXPECT_THROW(make_harvest_source("warp:w=1"), Error);          // unknown kind
  EXPECT_THROW(make_harvest_source("const:watts=1e-3"), Error);  // unknown key
  EXPECT_THROW(make_harvest_source("const:w=soon"), Error);      // bad number
  EXPECT_THROW(make_harvest_source("const:w=nan"), Error);       // non-finite
  EXPECT_THROW(make_harvest_source("const:w=inf"), Error);
  EXPECT_THROW(make_harvest_source("square:hi=nan"), Error);
  EXPECT_THROW(make_harvest_source("square:period=inf"), Error);
  EXPECT_THROW(make_harvest_source("const:w=-1"), Error);        // negative income
  EXPECT_THROW(make_harvest_source("const:w"), Error);           // missing '='
  EXPECT_THROW(make_harvest_source("trace"), Error);             // missing path
  EXPECT_THROW(make_harvest_source("trace:path=/no/such.csv"), Error);
  EXPECT_THROW(make_harvest_source("trace:path=/no/such.csv,interp=cubic"), Error);
  EXPECT_THROW(make_harvest_source("rf:seed=-1"), Error);  // integer keys: range-checked
  EXPECT_THROW(make_harvest_source("rf:seed=1e30"), Error);
  EXPECT_THROW(make_harvest_source("rf:seed=2.5"), Error);
  // Field ranges: power >= 0, periods/durations/rates > 0, fractions of
  // a period in [0, 1] (daylight > 0: the arch divides by it).
  EXPECT_THROW(make_harvest_source("square:lo=-5"), Error);
  EXPECT_THROW(make_harvest_source("square:hi=1e-3,lo=-1e-3,period=0.02,duty=0.5"), Error);
  EXPECT_THROW(make_harvest_source("square:hi=-1e-3"), Error);
  EXPECT_THROW(make_harvest_source("square:period=0"), Error);
  EXPECT_THROW(make_harvest_source("square:duty=1.5"), Error);
  EXPECT_THROW(make_harvest_source("sine:amp=-1e-3"), Error);
  EXPECT_THROW(make_harvest_source("sine:mean=-1e-3"), Error);
  EXPECT_THROW(make_harvest_source("sine:period=-1"), Error);
  EXPECT_THROW(make_harvest_source("rf:base=-1e-3"), Error);
  EXPECT_THROW(make_harvest_source("rf:rate=0"), Error);
  EXPECT_THROW(make_harvest_source("rf:dur=-5e-3"), Error);
  EXPECT_THROW(make_harvest_source("rf:horizon=0"), Error);
  EXPECT_THROW(make_harvest_source("solar:floor=-1e-3"), Error);
  EXPECT_THROW(make_harvest_source("solar:day=0"), Error);
  EXPECT_THROW(make_harvest_source("solar:daylight=0"), Error);
  EXPECT_THROW(make_harvest_source("solar:daylight=1.01"), Error);
  // A repeated key is an error, not last-wins, and the error names it.
  try {
    make_harvest_source("square:hi=1e-3,hi=2e-3");
    ADD_FAILURE() << "repeated hi accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key \"hi\""), std::string::npos)
        << e.what();
  }
  // The bounds are inclusive where the model allows it.
  EXPECT_NO_THROW(make_harvest_source("square:hi=0,lo=0,duty=0"));
  EXPECT_NO_THROW(make_harvest_source("square:duty=1"));
  EXPECT_NO_THROW(make_harvest_source("solar:daylight=1"));
}

TEST(ScenarioArg, ParsesNameSourceAndOptions) {
  const auto sc = sim::parse_scenario_arg(
      "office=trace:path=traces/rf_office.csv;cap=4.7e-5;max_off=2;reboots=500");
  EXPECT_EQ(sc.name, "office");
  EXPECT_EQ(sc.source, "trace:path=traces/rf_office.csv");
  EXPECT_DOUBLE_EQ(sc.capacitance_f, 4.7e-5);
  EXPECT_DOUBLE_EQ(sc.max_off_s, 2.0);
  EXPECT_EQ(sc.max_reboots, 500);
}

TEST(ScenarioArg, RejectsMalformed) {
  EXPECT_THROW(sim::parse_scenario_arg("noequals"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("name="), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;volts=3"), Error);  // unknown option
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;cap=tiny"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;reboots=-1"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;reboots=2.5"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;max_futile=1e30"), Error);
  // cap and max_off take the fleet config's bounds.
  EXPECT_THROW(sim::parse_scenario_arg("x=const:w=1e-3;cap=-1"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("x=const:w=1e-3;cap=0"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("x=const:w=1e-3;cap=inf"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("x=const:w=1e-3;max_off=-3"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("x=const:w=1e-3;max_off=0"), Error);
  // Non-finite and repeated options are rejected, and the error names the key.
  const struct {
    const char* arg;
    const char* error;
  } named[] = {
      {"x=const:w=1e-3;max_off=inf", "bad number for max_off"},
      {"x=const:w=1e-3;cap=1e-6;cap=2e-6", "duplicate key \"cap\""},
      {"x=const:w=1e-3;volts=3", "unknown key \"volts\""},
      {"x=const:w=1e-3;cap=1e-30", "cap must be in [1e-09, inf)"},  // the 1 nF floor
  };
  for (const auto& row : named) {
    try {
      sim::parse_scenario_arg(row.arg);
      ADD_FAILURE() << row.arg << " accepted";
    } catch (const UserError& e) {
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << row.arg << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace ehdnn::power
