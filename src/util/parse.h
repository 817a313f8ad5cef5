// Strict numeric field parsing, shared by the trace CSV reader, every
// key=value input (through SpecArgs, util/spec.h) and the CLI flags: the
// whole field — minus surrounding whitespace — must be consumed, so
// "1e-3x" or "soon" never half-parses.
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
#include <vector>

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

// `s` cut at every `sep`: n separators give n + 1 items, empty ones
// included ("" gives one empty item).
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  for (std::size_t cut; (cut = s.find(sep, pos)) != std::string::npos; pos = cut + 1) {
    items.push_back(s.substr(pos, cut - pos));
  }
  items.push_back(s.substr(pos));
  return items;
}

// A comma-separated list of non-negative int ids ("0,8,12"), as the
// --trace-devices / --trace-cells flags take it; nullopt when any item,
// an empty one included, is not such an id.
inline std::optional<std::vector<int>> parse_id_list(const std::string& s) {
  std::vector<int> ids;
  for (const std::string& item : split(s, ',')) {
    const auto id = parse_int(item, 0, std::numeric_limits<int>::max());
    if (!id.has_value()) return std::nullopt;
    ids.push_back(*id);
  }
  return ids;
}

}  // namespace ehdnn
