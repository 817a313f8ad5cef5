// Strict numeric field parsing, shared by the trace CSV reader, the
// harvest/scenario/scheduler spec parsers, the fleet config reader and the
// CLI flags: the whole field — minus surrounding whitespace — must be
// consumed, so "1e-3x" or "soon" never half-parses.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace ehdnn {

inline std::optional<double> parse_double(const std::string& field) {
  const char* s = field.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s) return std::nullopt;
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return std::nullopt;
    ++end;
  }
  return v;
}

// An integer in [lo, hi]. Accepts a decimal or 0x-hex literal (exact over
// the whole 64-bit range) or a whole-valued real up to 2^53 in magnitude
// ("1e3"). Rejects "2.5", "nan", "inf", trailing junk, and every value
// outside [lo, hi] — before any cast, so an out-of-range value is an
// error instead of undefined behaviour or a silent wrap.
template <class Int>
std::optional<Int> parse_int(const std::string& field, Int lo, Int hi) {
  auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  std::string_view s = field;
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  bool neg = !s.empty() && s.front() == '-';
  std::string_view digits = s.substr(!s.empty() && (neg || s.front() == '+') ? 1 : 0);
  int base = 10;
  if (digits.size() > 2 && digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X')) {
    base = 16;
    digits.remove_prefix(2);
  }
  unsigned long long mag = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), mag, base);
  if (ec == std::errc::result_out_of_range) return std::nullopt;
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    const auto d = parse_double(field);
    if (!d.has_value() || !(std::fabs(*d) <= 0x1p53) || *d != std::floor(*d)) {
      return std::nullopt;
    }
    neg = *d < 0.0;
    mag = static_cast<unsigned long long>(std::fabs(*d));
  }
  if (!neg) {
    if (std::cmp_less(mag, lo) || std::cmp_greater(mag, hi)) return std::nullopt;
    return static_cast<Int>(mag);
  }
  // -mag as a long long; magnitudes past 2^63 are below every lo.
  constexpr unsigned long long kMinMag = 1ull << 63;
  if (mag > kMinMag) return std::nullopt;
  const long long v =
      mag == kMinMag ? std::numeric_limits<long long>::min() : -static_cast<long long>(mag);
  if (std::cmp_less(v, lo) || std::cmp_greater(v, hi)) return std::nullopt;
  return static_cast<Int>(v);
}

}  // namespace ehdnn
