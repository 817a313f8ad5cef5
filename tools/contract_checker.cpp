// contract_checker — exhaustive small-state model checking of the
// scheduler contracts (sched/contracts.h; statements + closure evidence
// in CONTRACTS.md).
//
//   contract_checker                      # bounded grid (the ctest subset)
//   contract_checker --depth full         # the full cross product
//   contract_checker --list-worlds        # print every serialized world
//   contract_checker --world "world ..."  # replay one serialized world
//   contract_checker --calibration        # the tiny fixture's tier costs
//
// Output is deterministic: byte-identical across runs and --jobs N (no
// host clocks, results reduced in world order). Exit 0 on PASS, 1 on any
// violation or internal fault, 2 on malformed input (a flag or a world
// line), reported as one line.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sched/contracts.h"
#include "util/check.h"
#include "util/cli.h"

namespace contract = ehdnn::sched::contract;

namespace {

int run_replay(const std::vector<std::string>& lines, int jobs, bool dump,
               std::ostream& os) {
  std::vector<contract::World> worlds;
  std::vector<contract::RelockWorld> relocks;
  for (const std::string& line : lines) {
    if (line.rfind("relock", 0) == 0) {
      relocks.push_back(contract::parse_relock_world(line));
    } else {
      worlds.push_back(contract::parse_world(line));
    }
  }
  if (dump) {
    // Counterexample forensics: per-job twin verdicts and the budget
    // twin's decision log (same evidence the contracts are checked on).
    for (const auto& w : worlds) {
      const contract::WorldResult res = contract::run_world(w);
      os << contract::serialize_world(w) << "\n";
      for (const auto& o : res.jobs) {
        os << "  job " << o.job << ": "
           << (o.budget_skipped ? "skip stage=" + std::to_string(o.budget_stage)
                                : std::string(o.budget_met ? "met" : "miss"))
           << " all=" << (o.all_met ? "met" : "miss") << "\n";
      }
      for (const auto& d : res.budget_decisions) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "  decide t=%.6g tier=%s%s fc_samples=%ld fc_period=%.6g "
                      "forecast=%.6g ovh=%.6g dl=%.6g",
                      d.t_s, d.tier.c_str(), d.demote ? " DEMOTE" : "", d.fc_samples,
                      d.fc_period_s, d.forecast_w, d.ovh_j, d.deadline_s);
        os << buf << "\n";
      }
    }
  }
  const contract::Report rep = contract::check(worlds, relocks, jobs);
  contract::write_report(os, rep, "replay");
  return rep.pass() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string depth = "bounded";
  std::string out_path;
  int jobs = 1;
  std::vector<std::string> replay;
  bool list_worlds = false;
  bool calibration = false;
  bool dump = false;

  ehdnn::CliParser p("contract_checker",
                     "Enumerates discretized scheduler worlds to closure and checks the "
                     "formal admission/tier/forecast contracts (CONTRACTS.md).");
  p.value("--depth", "bounded|full", "grid depth (default bounded: the <60 s ctest subset)",
          [&](const std::string& v) {
            ehdnn::check_input(v == "bounded" || v == "full",
                         "--depth must be bounded or full");
            depth = v;
          })
      .int_min("--jobs", "N", "worker threads (output is byte-identical for any N)",
               &jobs, 1)
      .str("--out", "FILE", "write the report to FILE instead of stdout", &out_path)
      .value("--world", "LINE",
             "replay one serialized world/relock line instead of a grid (repeatable)",
             [&](const std::string& v) { replay.push_back(v); })
      .flag("--list-worlds", "print every serialized world of the grid and exit",
            [&]() { list_worlds = true; })
      .flag("--dump", "with --world: also print per-job verdicts and the decision log",
            [&]() { dump = true; })
      .flag("--calibration",
            "print the tiny fixture's calibrated per-tier costs and exit",
            [&]() { calibration = true; });
  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;

  try {
    const contract::Depth d =
        depth == "full" ? contract::Depth::kFull : contract::Depth::kBounded;

    if (calibration) {
      // Evidence for the grid axis choices (recorded in CONTRACTS.md):
      // the tiny fixture's calibrated continuous-power costs per tier,
      // plus the derived draw rate the income axis straddles.
      const ehdnn::sched::CompletionModel& cm = contract::fixture_completion_model();
      std::printf("# tiny fixture calibration (continuous power, scratch device)\n");
      std::printf("%-6s %-5s %12s %12s %12s\n", "tier", "pers", "energy_j", "on_s",
                  "draw_w");
      for (const auto& t : cm.tiers()) {
        std::printf("%-6s %-5s %12.5g %12.5g %12.5g\n", t.key.c_str(),
                    t.persistent ? "yes" : "no", t.energy_j, t.on_s,
                    t.energy_j / t.on_s);
      }
      return 0;
    }

    std::ofstream of;
    std::ostream* os = &std::cout;
    if (!out_path.empty()) {
      of.open(out_path, std::ios::binary);
      ehdnn::check_input(of.good(), "cannot open --out " + out_path);
      os = &of;
    }

    if (!replay.empty()) return run_replay(replay, jobs, dump, *os);

    if (list_worlds) {
      for (const auto& w : contract::world_grid(d)) {
        *os << contract::serialize_world(w) << "\n";
      }
      for (const auto& w : contract::relock_grid(d)) {
        *os << contract::serialize_world(w) << "\n";
      }
      return 0;
    }

    const contract::Report rep = contract::check_depth(d, jobs);
    contract::write_report(*os, rep, depth);
    return rep.pass() ? 0 : 1;
  } catch (const ehdnn::UserError& e) {
    std::cerr << "contract_checker: " << e.what() << "\n";
    return 2;
  } catch (const ehdnn::Error& e) {
    std::cerr << "contract_checker: " << e.what() << "\n";
    return 1;
  }
}
