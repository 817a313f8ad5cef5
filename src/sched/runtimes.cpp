#include "sched/runtimes.h"

#include <string_view>

#include "sched/adaptive.h"
#include "util/check.h"

namespace ehdnn::sched {

namespace {

// `adaptive` entries ship BOTH variants co-resident and pick per boot;
// their `compressed` flag names the primary image the executor is armed
// with (the sim layer provisions the dense twin via provision_deployment).
struct RuntimeEntry {
  const char* key;
  bool compressed;  // deployment model vs dense twin (primary for adaptive)
  bool adaptive;    // per-boot scheduled (needs both variants provisioned)
  std::unique_ptr<flex::RuntimePolicy> (*make_policy)();
};

constexpr RuntimeEntry kRuntimeTable[] = {
    {"base", false, false, flex::make_ace_policy},
    {"ace", true, false, flex::make_ace_policy},
    {"sonic", false, false, flex::make_sonic_policy},
    {"tails", false, false, flex::make_tails_policy},
    {"tile", false, false, [] { return flex::make_tile_policy(); }},
    {"flex", true, false, flex::make_flex_policy},
    {"adaptive", true, true, [] { return make_adaptive_policy(); }},
    // Deadline-aware scheduling v2 as its own key: predicted-completion
    // tier selection over the periodic harvest forecaster (no admission —
    // a one-shot scenario cell has no deadline to refuse).
    {"adaptive-deadline", true, true,
     [] {
       return make_adaptive_policy(parse_adaptive_spec("adaptive:sel=deadline,fc=periodic"));
     }},
};

const RuntimeEntry& runtime_entry(const std::string& key) {
  // "tile" takes an optional ":t=N" spec suffix; the base name before the
  // colon resolves the table entry.
  const std::string_view base = std::string_view(key).substr(0, key.find(':'));
  for (const auto& rk : kRuntimeTable) {
    if (base == rk.key) {
      if (base.size() != key.size()) {
        // Validate spec arguments HERE so every resolver — the sweep, the
        // fuzzer, and fleet-config validation — rejects a malformed tile
        // spec (t=0, t=-4, unknown keys) before any device is built.
        check_input(base == "tile", "scenario: runtime \"" + std::string(base) +
                                        "\" takes no spec arguments (\"" + key + "\")");
        flex::parse_tile_spec(key);
      }
      return rk;
    }
  }
  std::string known;
  for (const auto& rk : kRuntimeTable)
    known += std::string(known.empty() ? "" : "|") + rk.key;
  fail_input("scenario: unknown runtime \"" + key + "\" (" + known + ")");
}

}  // namespace

std::unique_ptr<flex::RuntimePolicy> make_policy(const std::string& key) {
  const RuntimeEntry& e = runtime_entry(key);
  // A spec suffix (tile's ":t=N", the only one runtime_entry accepts)
  // reaches the policy; a bare key takes the entry's default.
  if (key.size() != std::string_view(e.key).size()) {
    return flex::make_tile_policy(flex::parse_tile_spec(key));
  }
  return e.make_policy();
}

bool runtime_uses_compressed_model(const std::string& key) {
  return runtime_entry(key).compressed;
}

bool runtime_is_adaptive(const std::string& key) { return runtime_entry(key).adaptive; }

ModelVariants runtime_variants(const std::string& key) {
  const RuntimeEntry& e = runtime_entry(key);
  return {e.adaptive || e.compressed, e.adaptive || !e.compressed};
}

const std::vector<std::string>& all_runtime_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> v;
    for (const auto& rk : kRuntimeTable) v.emplace_back(rk.key);
    return v;
  }();
  return keys;
}

}  // namespace ehdnn::sched
