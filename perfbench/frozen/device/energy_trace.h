// Per-rail energy accounting — the simulation-side equivalent of TI's
// EnergyTrace tooling the paper uses for measurements (SSIII-D).
#pragma once

#include <array>
#include <cstddef>
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
