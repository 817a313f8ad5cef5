// THE runtime table: every runtime key the simulator knows, the model
// variant its device executes, whether it is the per-boot scheduler, and
// its policy factory — one static table in runtimes.cpp. The scenario
// sweep, the fleet harness, the paper benches, the crash-consistency
// fuzzer, the CLIs' --list-runtimes output and the adaptive scheduler's
// ladder (sched/adaptive.h) all resolve keys through it, so adding a
// runtime cannot desynchronize them.
//
// Keys, in sweep order: base, sonic/tails and tile execute the dense twin
// ("tile" accepts an optional ":t=N" spec suffix — MACs per sub-layer
// cursor commit), ace and flex the RAD-compressed deployment model, and
// the two adaptive keys ship both variants co-resident and pick runtime +
// variant per boot (sched::AdaptivePolicy) — `adaptive` via the
// income-threshold ladder, `adaptive-deadline` via predicted-completion
// tier selection over the periodic forecaster.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/flex/executor.h"

namespace ehdnn::sched {

const std::vector<std::string>& all_runtime_keys();

// Policy factory for those keys. Run one inference with
// flex::IntermittentExecutor(*policy).run(...). Throws on an unknown key
// or a malformed spec suffix.
std::unique_ptr<flex::RuntimePolicy> make_policy(const std::string& key);

// Whether a runtime key executes the RAD-compressed deployment model
// (ace/flex) or the dense twin (base/sonic/tails/tile). For adaptive this
// is the PRIMARY image (compressed); the dense twin rides along
// co-resident.
bool runtime_uses_compressed_model(const std::string& key);

// Whether a runtime key is the per-boot scheduler (needs both model
// variants provisioned — see sched/adaptive.h).
bool runtime_is_adaptive(const std::string& key);

// The model variants a runtime key's device ships: the one it executes,
// or both for the adaptive keys: what the sweep and the fleet build and
// compile for it.
struct ModelVariants {
  bool compressed = false;
  bool dense = false;
  bool ships(bool compressed_variant) const {
    return compressed_variant ? compressed : dense;
  }
};
ModelVariants runtime_variants(const std::string& key);

}  // namespace ehdnn::sched
