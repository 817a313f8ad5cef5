// Small integer/float math helpers shared across modules.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ehdnn {

constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// floor(log2(n)) for n >= 1.
constexpr int ilog2(std::size_t n) {
  int k = 0;
  while (n > 1) {
    n >>= 1;
    ++k;
  }
  return k;
}

constexpr std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t div_ceil(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace ehdnn
