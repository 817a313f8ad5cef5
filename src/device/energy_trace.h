// Per-rail energy accounting — the simulation-side equivalent of TI's
// EnergyTrace tooling the paper uses for measurements (SSIII-D).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

namespace ehdnn::dev {

enum class Rail : std::size_t {
  kCpu = 0,
  kLea,
  kDma,
  kSramRead,
  kSramWrite,
  kFramRead,
  kFramWrite,
  kCount,
};

inline const char* rail_name(Rail r) {
  switch (r) {
    case Rail::kCpu: return "cpu";
    case Rail::kLea: return "lea";
    case Rail::kDma: return "dma";
    case Rail::kSramRead: return "sram_rd";
    case Rail::kSramWrite: return "sram_wr";
    case Rail::kFramRead: return "fram_rd";
    case Rail::kFramWrite: return "fram_wr";
    case Rail::kCount: break;
  }
  return "?";
}

class EnergyTrace {
 public:
  void add(Rail rail, double joules, double cycles) {
    energy_[static_cast<std::size_t>(rail)] += joules;
    cycles_[static_cast<std::size_t>(rail)] += cycles;
    total_energy_ += joules;
    total_cycles_ += cycles;
  }

  // add(c.rail, c.joules, c.cycles) for each charge c of `charges` (at
  // most kRepeatedRails distinct rails), the whole sequence `reps` times
  // over: the same sums, in the same order, as the add() calls. The run
  // holds each touched accumulator in a register: a charge's rail is
  // resolved once, to a slot, and the slots are named by constant indices
  // so the compiler keeps them out of memory.
  static constexpr std::size_t kRepeatedRails = 4;
  template <class Charge>
  void add_repeated(std::span<const Charge> charges, std::size_t reps) {
    std::array<std::size_t, kRepeatedRails> rail_of{};  // slot -> rail
    std::array<std::size_t, kRepeatedRails> slot_of{};  // charge -> slot
    std::size_t slots = 0;
    for (std::size_t i = 0; i < charges.size(); ++i) {
      const auto r = static_cast<std::size_t>(charges[i].rail);
      std::size_t s = 0;
      while (s < slots && rail_of[s] != r) ++s;
      if (s == slots) rail_of[slots++] = r;
      slot_of[i] = s;
    }
    std::array<double, kRepeatedRails> e{}, c{};
    for (std::size_t s = 0; s < slots; ++s) {
      e[s] = energy_[rail_of[s]];
      c[s] = cycles_[rail_of[s]];
    }
    double total_energy = total_energy_;
    double total_cycles = total_cycles_;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < charges.size(); ++i) {
        const Charge& ch = charges[i];
        switch (slot_of[i]) {
          case 0: e[0] += ch.joules; c[0] += ch.cycles; break;
          case 1: e[1] += ch.joules; c[1] += ch.cycles; break;
          case 2: e[2] += ch.joules; c[2] += ch.cycles; break;
          default: e[3] += ch.joules; c[3] += ch.cycles; break;
        }
        total_energy += ch.joules;
        total_cycles += ch.cycles;
      }
    }
    for (std::size_t s = 0; s < slots; ++s) {
      energy_[rail_of[s]] = e[s];
      cycles_[rail_of[s]] = c[s];
    }
    total_energy_ = total_energy;
    total_cycles_ = total_cycles;
  }

  double energy(Rail rail) const { return energy_[static_cast<std::size_t>(rail)]; }
  double cycles(Rail rail) const { return cycles_[static_cast<std::size_t>(rail)]; }
  double total_energy() const { return total_energy_; }
  double total_cycles() const { return total_cycles_; }

  void reset() {
    energy_.fill(0.0);
    cycles_.fill(0.0);
    total_energy_ = 0.0;
    total_cycles_ = 0.0;
  }

  // Lightweight marker for measuring deltas around a region of interest
  // (e.g. a checkpoint): snapshot then subtract.
  struct Snapshot {
    double energy = 0.0;
    double cycles = 0.0;
  };
  Snapshot snapshot() const { return {total_energy_, total_cycles_}; }
  Snapshot delta(const Snapshot& since) const {
    return {total_energy_ - since.energy, total_cycles_ - since.cycles};
  }

 private:
  std::array<double, static_cast<std::size_t>(Rail::kCount)> energy_{};
  std::array<double, static_cast<std::size_t>(Rail::kCount)> cycles_{};
  double total_energy_ = 0.0;
  double total_cycles_ = 0.0;
};

}  // namespace ehdnn::dev
