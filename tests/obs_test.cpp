// Observability subsystem (src/obs/): the event-trace ring, the metrics
// registry's merge algebra, the exporters' byte-determinism, and the v6/v3
// report schemas the `metrics` block rides in. The properties pinned here
// are the ones the sharded fleet relies on: traces stamped in simulated
// device time are invariant to worker count, and registry merges are
// invariant to partition order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/check.h"

namespace ehdnn::obs {
namespace {

using EK = EventKind;

// ------------------------------------------------------- EventTrace ring

TEST(EventTrace, CountsOnlyModeKeepsNoRing) {
  EventTrace t;  // capacity 0: the every-device fleet mode
  for (int i = 0; i < 100; ++i) t.record(i * 0.001, EK::kCommit, i);
  t.record(0.2, EK::kBoot, 1);
  EXPECT_EQ(t.count(EK::kCommit), 100);
  EXPECT_EQ(t.count(EK::kBoot), 1);
  EXPECT_EQ(t.total(), 101);
  EXPECT_EQ(t.dropped(), 0);  // nothing retained, so nothing "dropped"
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(EventTrace, RingWrapsOldestFirstAndCountsDrops) {
  EventTrace t(4);
  for (int i = 0; i < 10; ++i) t.record(i * 1.0, EK::kCommit, i);
  EXPECT_EQ(t.count(EK::kCommit), 10);  // counters never drop
  EXPECT_EQ(t.total(), 10);
  EXPECT_EQ(t.dropped(), 6);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // The retained window is the most recent events, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].a, 6 + i);
    EXPECT_DOUBLE_EQ(snap[i].t_s, 6.0 + i);
  }
}

// The capacity bounds the ring; it allocates nothing up front, so a
// capacity no host could hold (--trace-capacity at its maximum) records
// like any capacity the events fit in.
TEST(EventTrace, HugeCapacityIsABoundNotAnAllocation) {
  EventTrace t(SIZE_MAX);
  EXPECT_EQ(t.capacity(), SIZE_MAX);
  for (int i = 0; i < 5; ++i) t.record(i * 1.0, EK::kCommit, i);
  EXPECT_EQ(t.dropped(), 0);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(snap[i].a, i);
  t.set_capacity(SIZE_MAX);  // a re-bound clears the ring, again allocating nothing
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(EventTrace, ClearResetsCountersRingAndDrops) {
  EventTrace t(2);
  for (int i = 0; i < 5; ++i) t.record(i, EK::kBoot);
  t.clear();
  EXPECT_EQ(t.total(), 0);
  EXPECT_EQ(t.dropped(), 0);
  EXPECT_TRUE(t.snapshot().empty());
  t.record(1.0, EK::kRecovery);
  EXPECT_EQ(t.count(EK::kRecovery), 1);
  ASSERT_EQ(t.snapshot().size(), 1u);
}

TEST(EventTrace, NullSinkHelperIsANoop) {
  record(nullptr, 1.0, EK::kBoot);  // must not crash — the disabled path
  EventTrace t(2);
  record(&t, 1.0, EK::kBoot, 7, 8);
  ASSERT_EQ(t.snapshot().size(), 1u);
  EXPECT_EQ(t.snapshot()[0].a, 7);
  EXPECT_EQ(t.snapshot()[0].b, 8);
}

// ------------------------------------------------- MetricsRegistry algebra

std::string metrics_json(const MetricsRegistry& r) {
  std::ostringstream os;
  write_metrics_json(os, r, "");
  return os.str();
}

TEST(MetricsRegistry, MergeIsPermutationInvariant) {
  // Three partial registries with overlapping keys, merged in every
  // order: counters must add, gauges must max, and the serialized block
  // must come out byte-identical — the property that makes shard merges
  // and worker pools agree.
  auto part = [](long boot, long commit, long reboots) {
    MetricsRegistry r;
    *r.counter("event.boot") += boot;
    *r.counter("event.commit") += commit;
    r.set_max("fleet.max_device_reboots", reboots);
    return r;
  };
  const MetricsRegistry a = part(3, 100, 7);
  const MetricsRegistry b = part(5, 0, 2);
  const MetricsRegistry c = part(1, 42, 9);

  std::vector<const MetricsRegistry*> order = {&a, &b, &c};
  std::sort(order.begin(), order.end());
  std::string first;
  do {
    MetricsRegistry m;
    for (const MetricsRegistry* p : order) m.merge(*p);
    if (first.empty()) {
      first = metrics_json(m);
      EXPECT_EQ(m.counters().at("event.boot"), 9);
      EXPECT_EQ(m.counters().at("event.commit"), 142);
      EXPECT_EQ(m.gauges().at("fleet.max_device_reboots"), 9);
    } else {
      EXPECT_EQ(metrics_json(m), first) << "merge order changed the serialization";
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(MetricsRegistry, MergeAssociatesOverGroupings) {
  MetricsRegistry a, b, c;
  a.add("x", 1);
  b.add("x", 2);
  c.add("x", 4);
  c.set_max("g", 5);
  a.set_max("g", 3);
  MetricsRegistry ab_c;  // (a+b)+c
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  MetricsRegistry bc;
  bc.merge(b);
  bc.merge(c);
  MetricsRegistry a_bc;  // a+(b+c)
  a_bc.merge(a);
  a_bc.merge(bc);
  EXPECT_EQ(metrics_json(ab_c), metrics_json(a_bc));
}

TEST(MetricsRegistry, CellsAreStableAndSerializationIsSorted) {
  MetricsRegistry r;
  long* cell = r.counter("zeta");
  *cell += 1;
  // Inserting more keys must not move the cached cell (map nodes are
  // stable — the contract hot paths rely on).
  for (const char* k : {"alpha", "mid", "aaa"}) *r.counter(k) += 2;
  *cell += 1;
  EXPECT_EQ(r.counters().at("zeta"), 2);
  const std::string j = metrics_json(r);
  // Lexicographic key order in the output.
  EXPECT_LT(j.find("\"aaa\""), j.find("\"alpha\""));
  EXPECT_LT(j.find("\"alpha\""), j.find("\"mid\""));
  EXPECT_LT(j.find("\"mid\""), j.find("\"zeta\""));
}

// ------------------------------------------------------------- Exporters

std::vector<TraceCapture> sample_captures() {
  TraceCapture tc;
  tc.id = 3;
  tc.label = "device 3 tiny mnist/flex";
  tc.events = {
      {0.000, EK::kBoot, 1, 0},        {0.001, EK::kJobRelease, 0, 0},
      {0.0015, EK::kJobAdmit, 0, 0},   {0.002, EK::kCheckpointBegin, 0, 0},
      {0.003, EK::kCheckpointEnd, 1, 0}, {0.004, EK::kBrownOut, 0, 0},
      {0.010, EK::kRecovery, 0, 0},    {0.020, EK::kJobComplete, 0, 1},
  };
  tc.total = 8;
  return {tc};
}

TEST(Exporters, ChromeTraceIsStructurallySoundJson) {
  std::ostringstream os;
  write_chrome_trace(os, sample_captures());
  const std::string j = os.str();

  // Top-level shape Perfetto expects.
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(j.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Track naming metadata.
  EXPECT_NE(j.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"device 3 tiny mnist/flex\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"lifecycle\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"spans\""), std::string::npos);
  // Every lifecycle landmark is an instant on tid 0...
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"brown_out\""), std::string::npos);
  // ...and the begin/end + release/complete pairs synthesize durations:
  // checkpoint 0.002s→0.003s (1000 us) and job 0 0.001s→0.020s (19000 us).
  EXPECT_NE(j.find("\"ph\":\"X\",\"pid\":3,\"tid\":1,\"ts\":2000.000,\"dur\":1000.000,"
                   "\"name\":\"checkpoint\""),
            std::string::npos);
  EXPECT_NE(j.find("\"dur\":19000.000,\"name\":\"job 0\",\"args\":{\"in_deadline\":1}"),
            std::string::npos);

  // Balanced delimiters — cheap structural validity without a JSON parser
  // (no string in the output legitimately contains braces).
  long depth = 0, sq = 0;
  for (char ch : j) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (ch == '[') ++sq;
    if (ch == ']') --sq;
    ASSERT_GE(depth, 0);
    ASSERT_GE(sq, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(sq, 0);
}

TEST(Exporters, TextTraceIsDeterministicAndVersioned) {
  std::ostringstream a, b;
  write_text_trace(a, sample_captures());
  write_text_trace(b, sample_captures());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str().rfind("# ehdnn-trace-text-v1\n", 0), 0u);
  EXPECT_NE(a.str().find("trace 3 label=\"device 3 tiny mnist/flex\" total=8 "
                         "retained=8 dropped=0"),
            std::string::npos);
  EXPECT_NE(a.str().find("0.004000000 brown_out a=0 b=0"), std::string::npos);
}

TEST(Exporters, EmptyCaptureListStillWritesValidDocuments) {
  // A run with no traced devices can still hit the export path (e.g. a
  // --merge whose partials carried no captures); both formats must emit a
  // well-formed, loadable document rather than nothing.
  std::ostringstream cj, tx;
  write_chrome_trace(cj, {});
  write_text_trace(tx, {});
  EXPECT_EQ(cj.str(), "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
  EXPECT_EQ(tx.str(), "# ehdnn-trace-text-v1\n");
}

TEST(Exporters, ZeroEventDeviceGetsAHeaderAndNoRows) {
  // A traced device that never booted (starved before v_on): the capture
  // exists with an empty ring. The track metadata must still come out so
  // the device is visibly "there with zero events", not silently absent.
  TraceCapture tc;
  tc.id = 9;
  tc.label = "device 9 (starved)";
  std::ostringstream cj, tx;
  write_chrome_trace(cj, {tc});
  write_text_trace(tx, {tc});
  EXPECT_NE(cj.str().find("\"device 9 (starved)\""), std::string::npos);
  EXPECT_EQ(cj.str().find("\"ph\":\"i\""), std::string::npos);  // no instants
  EXPECT_EQ(cj.str().find("\"ph\":\"X\""), std::string::npos);  // no spans
  EXPECT_EQ(tx.str(),
            "# ehdnn-trace-text-v1\n"
            "trace 9 label=\"device 9 (starved)\" total=0 retained=0 dropped=0\n");
}

TEST(Exporters, TruncatedRingDegradesOrphanedPairsToInstants) {
  // A wrapped ring whose window starts mid-span: the checkpoint BEGIN and
  // the job RELEASE fell off, only the END / COMPLETE survive. The
  // exporter must keep the instants and synthesize NO duration events —
  // a span with a guessed start would be a lie in the profile view.
  EventTrace t(3);
  t.record(0.001, EK::kCheckpointBegin, 0);
  t.record(0.002, EK::kJobRelease, 0);
  t.record(0.003, EK::kCheckpointEnd, 1);  // ring full; next records drop oldest
  t.record(0.004, EK::kJobComplete, 0, 1);
  t.record(0.005, EK::kCheckpointBegin, 1);  // still open at capture end
  TraceCapture tc;
  tc.id = 0;
  tc.label = "truncated";
  tc.events = t.snapshot();
  tc.dropped = t.dropped();
  tc.total = t.total();
  ASSERT_EQ(tc.events.size(), 3u);
  ASSERT_EQ(tc.dropped, 2);

  std::ostringstream cj, tx;
  write_chrome_trace(cj, {tc});
  write_text_trace(tx, {tc});
  const std::string j = cj.str();
  // The surviving landmarks are all present as instants...
  EXPECT_NE(j.find("\"name\":\"checkpoint_end\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"job_complete\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"checkpoint_begin\""), std::string::npos);
  // ...but no duration event was synthesized from an orphaned half-pair.
  EXPECT_EQ(j.find("\"ph\":\"X\""), std::string::npos);
  // The text dump's header makes the truncation visible.
  EXPECT_NE(tx.str().find("total=5 retained=3 dropped=2"), std::string::npos);
}

TEST(Exporters, LabelsAreJsonEscaped) {
  TraceCapture tc;
  tc.id = 1;
  tc.label = "odd \"label\" with \\ and \x01 control";
  std::ostringstream cj;
  write_chrome_trace(cj, {tc});
  // Quotes and backslashes escaped, control bytes replaced — the output
  // must stay parseable JSON whatever a config file names a group.
  EXPECT_NE(cj.str().find("odd \\\"label\\\" with \\\\ and   control"),
            std::string::npos);
}

TEST(Exporters, EmptyMetricsRegistrySerializesEmptyBlocks) {
  MetricsRegistry reg;
  std::ostringstream os;
  write_metrics_json(os, reg, "  ");
  EXPECT_EQ(os.str(),
            "  \"metrics\": {\n"
            "    \"counters\": {},\n"
            "    \"gauges\": {}\n"
            "  }");
}

// ----------------------------------------------- fleet + sweep integration

sim::FleetConfig obs_fleet() {
  sim::FleetConfig cfg;
  cfg.source = "square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5";
  cfg.offset_spread_s = 0.02;
  sim::FleetGroup g;
  g.name = "tiny";
  g.count = 6;
  g.task = models::Task::kMnist;
  g.agenda.runtime = "flex";
  g.agenda.jobs = 1;
  g.agenda.period_s = 0.05;
  g.capacitance_f = 10e-6;
  cfg.groups.push_back(g);
  return cfg;
}

TEST(FleetObs, TracesAndMetricsAreWorkerCountInvariant) {
  sim::FleetRunOptions serial;
  serial.jobs = 1;
  serial.trace_devices = {4, 0};  // unsorted on purpose
  sim::FleetRunOptions pool = serial;
  pool.jobs = 3;
  const sim::FleetReport a = sim::run_fleet(obs_fleet(), serial);
  const sim::FleetReport b = sim::run_fleet(obs_fleet(), pool);

  // Captures come back sorted by device id regardless of completion order.
  ASSERT_EQ(a.traces.size(), 2u);
  EXPECT_EQ(a.traces[0].id, 0);
  EXPECT_EQ(a.traces[1].id, 4);

  std::ostringstream ja, jb, ca, cb, ta, tb;
  sim::write_fleet_json(ja, a);
  sim::write_fleet_json(jb, b);
  write_chrome_trace(ca, a.traces);
  write_chrome_trace(cb, b.traces);
  write_text_trace(ta, a.traces);
  write_text_trace(tb, b.traces);
  EXPECT_EQ(ja.str(), jb.str()) << "v6 report must be --jobs invariant";
  EXPECT_EQ(ca.str(), cb.str()) << "chrome trace must be --jobs invariant";
  EXPECT_EQ(ta.str(), tb.str()) << "text trace must be --jobs invariant";

  // Fleet-wide lifecycle accounting: every device boots fresh exactly
  // once, every reboot is a brown-out/recovery pair, and with 1 job per
  // device released at t=0 nothing ever parks.
  const auto& c = a.metrics.counters();
  EXPECT_EQ(c.at("event.boot"), c.at("event.recovery") + 6);
  EXPECT_EQ(c.at("event.brown_out"), c.at("event.recovery"));
  EXPECT_EQ(c.at("event.job_admit"), 6);
  EXPECT_EQ(c.at("event.job_complete"), 6);
  EXPECT_GT(c.at("event.commit"), 0);
  EXPECT_GE(a.metrics.gauges().at("fleet.max_device_reboots"), 1);
}

TEST(FleetObs, UntracedFleetStillFeedsMetrics) {
  // No trace_devices: every device still runs a counts-only trace, so the
  // metrics block is populated while r.traces stays empty.
  const sim::FleetReport r = sim::run_fleet(obs_fleet());
  EXPECT_TRUE(r.traces.empty());
  EXPECT_GT(r.metrics.counters().at("event.boot"), 0);
  std::ostringstream os;
  sim::write_fleet_json(os, r);
  EXPECT_NE(os.str().find("\"schema\": \"ehdnn-fleet-v6\""), std::string::npos);
  EXPECT_NE(os.str().find("\"metrics\": {"), std::string::npos);
}

TEST(FleetObs, ProfileUnderWorkerPoolThrowsInsteadOfSilentlyIgnoring) {
  flex::PhaseProfile prof;
  sim::FleetRunOptions ropts;
  ropts.profile = &prof;
  ropts.jobs = 2;
  EXPECT_THROW(sim::run_fleet(obs_fleet(), ropts), Error);
  ropts.jobs = 1;  // the supported combination still works
  const sim::FleetReport r = sim::run_fleet(obs_fleet(), ropts);
  EXPECT_EQ(r.devices.size(), 6u);
}

TEST(FleetObs, TraceSelectionValidatesDeviceIds) {
  sim::FleetRunOptions ropts;
  ropts.trace_devices = {6};  // one past the end of the 6-device fleet
  EXPECT_THROW(sim::run_fleet(obs_fleet(), ropts), Error);
  ropts.trace_devices = {0};
  ropts.trace_capacity = 0;
  EXPECT_THROW(sim::run_fleet(obs_fleet(), ropts), Error);
}

TEST(SweepObs, ScenariosV3CarriesMetricsAndCellTraces) {
  const std::vector<std::string> runtimes = {"flex"};
  const std::vector<models::Task> tasks = {models::Task::kMnist};
  const std::vector<sim::ScenarioSpec> scenarios = {
      sim::parse_scenario_arg("square-10ms=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"),
      sim::parse_scenario_arg("const-1.2mW=const:w=1.2e-3"),
  };
  sim::SweepOptions serial;
  serial.jobs = 1;
  serial.trace_cells = {1};
  sim::SweepOptions pool = serial;
  pool.jobs = 2;
  const sim::ScenarioMatrix a = sim::run_matrix(runtimes, tasks, scenarios, serial);
  const sim::ScenarioMatrix b = sim::run_matrix(runtimes, tasks, scenarios, pool);

  ASSERT_EQ(a.traces.size(), 1u);
  EXPECT_EQ(a.traces[0].id, 1);

  std::ostringstream ja, jb, ca, cb;
  sim::write_scenarios_json(ja, a);
  sim::write_scenarios_json(jb, b);
  write_chrome_trace(ca, a.traces);
  write_chrome_trace(cb, b.traces);
  EXPECT_EQ(ja.str(), jb.str()) << "v3 matrix must be --jobs invariant";
  EXPECT_EQ(ca.str(), cb.str()) << "cell trace must be --jobs invariant";

  const std::string j = ja.str();
  for (const char* needle :
       {"\"schema\": \"ehdnn-scenarios-v3\"", "\"metrics\": {", "\"counters\":",
        "\"gauges\":", "\"event.boot\":", "\"sweep.max_cell_reboots\":"}) {
    EXPECT_NE(j.find(needle), std::string::npos) << "missing " << needle;
  }
  EXPECT_EQ(j.find("ehdnn-scenarios-v1"), std::string::npos);
  EXPECT_EQ(j.find("ehdnn-scenarios-v2"), std::string::npos);

  // Sweep profile requests under a pool must throw, mirroring the fleet.
  flex::PhaseProfile prof;
  sim::SweepOptions bad;
  bad.profile = &prof;
  bad.jobs = 2;
  EXPECT_THROW(sim::run_matrix(runtimes, tasks, scenarios, bad), Error);
}

}  // namespace
}  // namespace ehdnn::obs
