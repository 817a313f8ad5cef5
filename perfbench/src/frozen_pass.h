// Passes of the frozen simulator: perfbench/frozen is a copy of src/ as it
// stood when the benchmark was defined, built into the runner under the
// namespace ehdnn_frozen. The untraced runs interleave its passes with the
// program's on the same workload; the ratio of the two walls is the host
// speed-up, and neighbour load on a shared host slows both sides alike.
//
// Nothing here names a simulator type, so either copy's headers can sit
// beside this one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::frozen {

struct Pass {
  double wall_s = 0.0;  // host seconds of the public entry point's call
  long jobs = 0;        // jobs or cells it ran
};

// One sim::FleetEngine::run (one worker) of a fleet config text.
Pass fleet_pass(const std::string& config_text);

// One sim::run_matrix (one worker) of `runtimes` x `tasks` under the
// default continuous scenario.
Pass zoo_pass(const std::vector<std::string>& runtimes, const std::vector<std::string>& tasks,
              std::uint64_t seed);

}  // namespace perfbench::frozen
