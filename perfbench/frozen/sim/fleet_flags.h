// Flag-combination validation for the fleet_runner CLI, pulled out of
// main() so the conflict matrix is table-testable: the runner has three
// mutually exclusive modes (full run / --shard partial / --merge), and a
// flag that is load-bearing in one mode is silently meaningless in
// another — every such combination must die with one clear line BEFORE
// any simulation work starts, not produce a truncated artifact.
#pragma once

#include <string>

namespace ehdnn::sim {

// What the command line asked for, reduced to the fields the conflict
// rules read. The CLI layer fills this after parsing; values carry no
// defaults beyond "flag absent".
struct FleetFlagSet {
  bool merge = false;            // --merge
  int merge_inputs = 0;          // bare PARTIAL arguments seen
  bool have_config = false;      // --config FILE
  std::string population_flag;   // last homogeneous flag seen ("" = none)
  int shards = 1;                // --shards N
  int shard = -1;                // --shard I (-1 = absent)
  bool compare_fixed = false;    // --compare-fixed
  bool compare_admission = false;  // --compare-admission
  bool profile = false;          // --profile
  int jobs = 1;                  // --jobs N
  bool have_trace_out = false;       // --trace-out FILE
  bool have_trace_text_out = false;  // --trace-text-out FILE
  bool have_trace_devices = false;   // --trace-devices IDs
};

// Returns "" when the combination is consistent, else the one-line
// usage diagnostic (no program-name prefix; the caller adds it and
// exits 2). First conflict wins — the rules are ordered mode-first so
// the message names the decision the user has to make, not a symptom.
std::string validate_fleet_flags(const FleetFlagSet& f);

}  // namespace ehdnn::sim
