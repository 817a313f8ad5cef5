// Trace exporters: Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing) and a deterministic plain-text dump (the golden-file
// format). Both render the same TraceCapture structure — a device's (or
// scenario cell's) retained event ring plus its identity — and both are
// byte-deterministic: fixed field order, fixed float formatting, events
// in recorded order.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"

namespace ehdnn::obs {

// One exported track: a traced device (fleet) or cell (scenario sweep).
struct TraceCapture {
  int id = 0;               // device index / cell index — the track's pid
  std::string label;        // e.g. "device 8 (sonic/sonic)" or a cell name
  std::vector<Event> events;  // oldest first (EventTrace::snapshot order)
  long dropped = 0;         // events the ring overwrote
  long total = 0;           // total recorded including dropped
};

// Chrome trace_event JSON: one process (track group) per capture, with
// instant events for every lifecycle landmark on a "lifecycle" thread and
// synthesized duration events (checkpoint begin/end pairs, job
// release→complete/miss spans) on a "spans" thread. Timestamps are the
// simulated device time in microseconds.
void write_chrome_trace(std::ostream& os, const std::vector<TraceCapture>& traces);

// Deterministic text dump (ehdnn-trace-text-v1): a header line per
// capture followed by one line per event. The format the obs goldens and
// the CI determinism cmp pin.
void write_text_trace(std::ostream& os, const std::vector<TraceCapture>& traces);

// Writes `traces` as Chrome JSON to `chrome_path` and as the text dump to
// `text_path`, skipping a format whose path is empty, and notes each file
// on stderr as "<tool>: N trace tracks -> PATH". A file that cannot be
// opened is a user error (UserError, "cannot write PATH").
void write_trace_files(const std::vector<TraceCapture>& traces,
                       const std::string& chrome_path, const std::string& text_path,
                       const char* tool);

// The shared `metrics` JSON block (counters then gauges, each sorted by
// name) used by both FLEET (ehdnn-fleet-v6) and SCENARIOS
// (ehdnn-scenarios-v3) writers. `indent` prefixes every emitted line; the
// block is emitted as `"metrics": {...}` with NO trailing comma/newline.
void write_metrics_json(std::ostream& os, const MetricsRegistry& reg,
                        const std::string& indent);

}  // namespace ehdnn::obs
