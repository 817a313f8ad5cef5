#include "sim/fleet_flags.h"

#include <string>

namespace ehdnn::sim {

std::string validate_fleet_flags(const FleetFlagSet& f) {
  if (f.merge) {
    if (f.shard >= 0 || f.shards > 1)
      return "--merge conflicts with --shard/--shards (run the shard partials "
             "first, then merge them)";
    if (f.have_config)
      return "--merge conflicts with --config (the population is echoed inside "
             "the partials)";
    if (!f.population_flag.empty())
      return "--merge conflicts with " + f.population_flag +
             " (the population is echoed inside the partials)";
    if (f.compare_fixed || f.compare_admission)
      return "--merge conflicts with baseline reruns; run them on the merged "
             "config without --shards";
    if (f.have_trace_devices)
      return "--merge: trace selection happens at shard time (--trace-devices on "
             "each --shard run); --trace-out/--trace-text-out export the merged "
             "captures";
    if (f.merge_inputs < 1) return "--merge needs at least one partial file";
    return "";
  }
  if (f.merge_inputs > 0) return "bare arguments are only valid with --merge";

  if (f.have_config && !f.population_flag.empty())
    return f.population_flag +
           " conflicts with --config (the population comes from the config file; "
           "edit it instead)";

  const bool sharded = f.shard >= 0 || f.shards > 1;
  if (sharded) {
    if (f.shard < 0) return "--shards needs --shard I (which shard is this process?)";
    if (f.shard >= f.shards)
      return "--shard must be < --shards (got --shard " + std::to_string(f.shard) +
             " with --shards " + std::to_string(f.shards) + ")";
    if (f.compare_fixed || f.compare_admission)
      return "baseline reruns are whole-population; run them on the merged config "
             "without --shards";
    if (f.have_trace_out || f.have_trace_text_out)
      return "--shard runs write partials (captures ride them); put --trace-out on "
             "the --merge";
  }

  // A trace export with an empty selection would silently write a file
  // with zero tracks — reject it up front (merge mode is exempt: its
  // selection rode in on the partials).
  if ((f.have_trace_out || f.have_trace_text_out) && !f.have_trace_devices)
    return std::string(f.have_trace_out ? "--trace-out" : "--trace-text-out") +
           " needs --trace-devices (no event rings are retained otherwise)";

  if (f.profile && f.jobs != 1)
    return "--profile needs --jobs 1 (one shared, unsynchronized sink)";
  return "";
}

}  // namespace ehdnn::sim
