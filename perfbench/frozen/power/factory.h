// One factory for every harvest source, keyed by a scenario spec string —
// the scenario engine's "new traces = new scenarios, zero code" entry
// point. Grammar (see BENCHMARKS.md "Scenarios"):
//
//   spec   := kind [":" key "=" value ("," key "=" value)*]
//   kind   := const | square | sine | rf | solar | trace
//
// Keys per kind (defaults in parentheses; powers in watts, times in s):
//   const:  w (1e-3)
//   square: hi (4e-3), lo (0), period (0.02), duty (0.5)
//   sine:   mean (2e-3), amp (2e-3), period (0.02)
//   rf:     base (0.2e-3), burst (5e-3), rate (30), dur (5e-3), seed (1),
//           horizon (10)
//   solar:  peak (5e-3), day (1.0), daylight (0.5), floor (0)
//   trace:  path (required), interp (linear|zoh, linear), loop (1), scale (1)
//
// Unknown kinds or keys, malformed values, and unreadable trace files all
// throw ehdnn::Error.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "power/harvest.h"

namespace ehdnn::power {

std::unique_ptr<HarvestSource> make_harvest_source(const std::string& spec);

// The spec kinds the factory accepts, from the same static kind table the
// dispatch uses (what `--list-sources` prints; cannot drift).
const std::vector<std::string>& harvest_source_kinds();

}  // namespace ehdnn::power
