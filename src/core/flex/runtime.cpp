#include "core/flex/runtime.h"

namespace ehdnn::flex {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kDidNotFinish: return "dnf";
    case Outcome::kStarved: return "starved";
  }
  return "?";
}

bool recover_from_failure(dev::Device& dev, RunStats& st) {
  st.off_seconds += dev.supply()->recharge_to_on();
  if (!dev.supply()->on()) {
    st.outcome = Outcome::kStarved;
    return false;
  }
  dev.reboot();
  return true;
}

void load_input(dev::Device& dev, const ace::CompiledModel& cm,
                std::span<const fx::q15_t> input) {
  check(input.size() == cm.model.layers.front().in_size(), "load_input: size mismatch");
  for (std::size_t i = 0; i < input.size(); ++i) dev.fram().poke(cm.act_a + i, input[i]);
}

std::vector<fx::q15_t> read_output(dev::Device& dev, const ace::CompiledModel& cm) {
  const std::size_t last = cm.model.layers.size() - 1;
  const std::size_t n = cm.model.layers[last].out_size();
  std::vector<fx::q15_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = dev.fram().peek(cm.act_out(last) + i);
  return out;
}

TraceBaseline mark(const dev::Device& dev) {
  TraceBaseline b;
  for (std::size_t r = 0; r < static_cast<std::size_t>(dev::Rail::kCount); ++r) {
    b.energy[r] = dev.trace().energy(static_cast<dev::Rail>(r));
  }
  b.total_cycles = dev.trace().total_cycles();
  b.reboots = dev.reboots();
  return b;
}

void fill_stats(RunStats& st, const dev::Device& dev, const TraceBaseline& base) {
  st.on_seconds = dev.cost().seconds(dev.trace().total_cycles() - base.total_cycles);
  double total = 0.0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(dev::Rail::kCount); ++r) {
    st.energy_by_rail[r] = dev.trace().energy(static_cast<dev::Rail>(r)) - base.energy[r];
    total += st.energy_by_rail[r];
  }
  st.energy_j = total;
  st.reboots = dev.reboots() - base.reboots;
}

long total_units(const ace::CompiledModel& cm) {
  long n = 0;
  for (const auto& l : cm.model.layers) n += static_cast<long>(ace::unit_count(l));
  return n;
}

}  // namespace ehdnn::flex
