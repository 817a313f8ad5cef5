// Named monotone counters and high-water gauges with qsketch-style merge
// semantics: integer bin-wise combination that is commutative and
// associative, so any partition of the work (worker threads, process
// shards) merges to the same registry — the property that lets a
// `metrics` block ride the byte-identical report JSON.
//
//   * counter — monotone sum; merge adds. ("event.boot", "profile.slices")
//   * gauge   — high-water mark; merge takes the max.
//     ("fleet.max_device_reboots")
//
// Hot paths cache a stable `long*` cell once (std::map nodes never move)
// and bump it directly — the same pattern flex::PhaseProfile uses for its
// slice/recovery/checkpoint counts, which keeps the --profile printout
// and the trace-derived metrics reading from one set of cells.
//
// Iteration order is the map's lexicographic key order, so serialization
// is deterministic without a sort pass.
#pragma once

#include <map>
#include <string>

namespace ehdnn::obs {

class MetricsRegistry {
 public:
  // Stable pointer to a (zero-initialized) counter cell.
  long* counter(const std::string& name) { return &counters_[name]; }
  long* gauge(const std::string& name) { return &gauges_[name]; }

  void add(const std::string& name, long v) { counters_[name] += v; }
  void set_max(const std::string& name, long v) {
    long& g = gauges_[name];
    if (v > g) g = v;
  }

  // Bin-wise merge: counters add, gauges max. Commutative and
  // associative over any grouping of partial registries.
  void merge(const MetricsRegistry& o) {
    for (const auto& [k, v] : o.counters_) counters_[k] += v;
    for (const auto& [k, v] : o.gauges_) set_max(k, v);
  }

  const std::map<std::string, long>& counters() const { return counters_; }
  const std::map<std::string, long>& gauges() const { return gauges_; }
  bool empty() const { return counters_.empty() && gauges_.empty(); }
  void clear() {
    counters_.clear();
    gauges_.clear();
  }

 private:
  std::map<std::string, long> counters_;
  std::map<std::string, long> gauges_;
};

}  // namespace ehdnn::obs
