// Structured lifecycle-event tracing for intermittent devices.
//
// An EventTrace is a per-device sink for the ~20 lifecycle landmarks the
// stack emits (boots, brown-outs, commits, checkpoints, scheduler tier
// moves, job agenda decisions, watchdog trips). Every event is stamped
// with SIMULATED device time — the supply clock, which is device-local
// and advances identically for any worker count or shard split — so a
// trace is deterministic and byte-identical across `--jobs N` and
// `--shards K`, exactly like the report JSON it rides along with.
//
// Two modes, chosen by capacity:
//   * counts-only (capacity 0, the default): record() is one array
//     increment per event. Cheap enough that the fleet/scenario harnesses
//     attach one to EVERY device, which is what feeds the `metrics` block
//     of FLEET/SCENARIOS output.
//   * ring capture (capacity > 0): additionally keeps the most recent
//     `capacity` events in a fixed-size ring (oldest overwritten first,
//     counted by dropped()) for export — Chrome trace_event JSON for
//     Perfetto, or the deterministic text dump the goldens pin.
//
// A null EventTrace* is the fully-disabled state: every instrumentation
// site guards with one predicted branch (see obs::record below), which is
// what keeps the perf-gate cost of compiled-in-but-unused tracing at
// effectively zero.
//
// This header depends on nothing in the project, so any layer (power,
// device, core, sched, sim) may include it without cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ehdnn::obs {

// The event vocabulary. One recording site per kind (see BENCHMARKS.md
// "Observability" for the site table); adding a kind means appending here
// AND to kEventNames below — the static_assert keeps them in lockstep.
enum class EventKind : std::int32_t {
  kBoot = 0,          // executor boot slice (a = fresh ? 1 : 0)
  kBrownOut,          // a slice ended with the device browned out
  kRecovery,          // recharge + reboot succeeded (one per RunStats reboot)
  kCommit,            // a unit committed (RuntimePolicy::on_commit)
  kCheckpointBegin,   // FLEX on-demand checkpoint write started
  kCheckpointEnd,     // ... and finished (a = checkpoint ordinal)
  kTileCursorWrite,   // tile runtime double-buffered cursor publish (a = layer)
  kTierSelect,        // adaptive: fresh-boot tier decision (a = tier)
  kTierSwitch,        // adaptive: re-decision changed tier (a = new, b = old)
  kTierDemote,        // adaptive: no-progress demotion chose a tier (a = tier)
  kForecastLock,      // periodic forecaster confirmed a period
  kForecastDrop,      // ... and lost it again
  kJobRelease,        // agenda release instant reached (a = job index)
  kJobAdmit,          // admission accepted the release (a = job index)
  kJobSkip,           // admission skipped an infeasible release (a = job index)
  kJobComplete,       // job finished, output committed (a = job, b = in deadline)
  kJobMiss,           // job ended without completing (a = job index)
  kFutileBoot,        // watchdog: a power cycle banked no progress (a = streak)
  kLivelockTrip,      // watchdog abandoned the run (a = streak)
  kPark,              // agenda idles the device until the next release
  kIdle,              // supply-level idle fast-forward finished
  kKindCount
};

inline constexpr int kKindCount = static_cast<int>(EventKind::kKindCount);

inline const char* event_name(EventKind k) {
  static constexpr const char* kEventNames[] = {
      "boot",          "brown_out",     "recovery",       "commit",
      "checkpoint_begin", "checkpoint_end", "tile_cursor_write", "tier_select",
      "tier_switch",   "tier_demote",   "forecast_lock",  "forecast_drop",
      "job_release",   "job_admit",     "job_skip",       "job_complete",
      "job_miss",      "futile_boot",   "livelock_trip",  "park",
      "idle",
  };
  static_assert(sizeof(kEventNames) / sizeof(kEventNames[0]) == kKindCount,
                "event name table out of sync with EventKind");
  const int i = static_cast<int>(k);
  return (i >= 0 && i < kKindCount) ? kEventNames[i] : "?";
}

// One recorded event: 16 bytes, trivially copyable (the shard partials
// serialize these as text fields, not raw bytes — endianness-proof).
struct Event {
  double t_s = 0.0;                       // simulated device time
  EventKind kind = EventKind::kBoot;
  std::int32_t a = 0, b = 0;              // kind-specific payload (see enum)
};

class EventTrace {
 public:
  explicit EventTrace(std::size_t capacity = 0) { set_capacity(capacity); }

  // Per-kind counters are ALWAYS maintained; the ring only when capacity
  // is nonzero. Changing capacity clears the ring (not the counters).
  void set_capacity(std::size_t capacity) {
    cap_ = capacity;
    ring_.clear();
    ring_.reserve(cap_);
    head_ = 0;
    dropped_ = 0;
  }
  std::size_t capacity() const { return cap_; }

  void record(double t_s, EventKind k, std::int32_t a = 0, std::int32_t b = 0) {
    ++counts_[static_cast<int>(k)];
    if (cap_ == 0) return;
    if (ring_.size() < cap_) {
      ring_.push_back(Event{t_s, k, a, b});
    } else {
      // Overwrite the oldest — a bounded trace keeps the most recent
      // window, which is where the terminal verdict's evidence lives.
      ring_[head_] = Event{t_s, k, a, b};
      head_ = (head_ + 1 == cap_) ? 0 : head_ + 1;
      ++dropped_;
    }
  }

  long count(EventKind k) const { return counts_[static_cast<int>(k)]; }
  const long* counts() const { return counts_; }
  // Total events recorded (counting ones the ring dropped).
  long total() const {
    long t = 0;
    for (int i = 0; i < kKindCount; ++i) t += counts_[i];
    return t;
  }
  long dropped() const { return dropped_; }

  // The retained events, oldest first.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    for (int i = 0; i < kKindCount; ++i) counts_[i] = 0;
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  long counts_[kKindCount] = {};
  std::vector<Event> ring_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // oldest retained event once the ring is full
  long dropped_ = 0;
};

// The null-safe recording helper every instrumentation site goes
// through: a disabled trace costs exactly this one (well-predicted)
// branch.
inline void record(EventTrace* t, double t_s, EventKind k, std::int32_t a = 0,
                   std::int32_t b = 0) {
  if (t != nullptr) t->record(t_s, k, a, b);
}

}  // namespace ehdnn::obs
