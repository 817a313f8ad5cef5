// Strict numeric field parsing, shared by the trace CSV reader and the
// harvest/scenario spec parsers: the whole field — minus surrounding
// whitespace — must be consumed, so "1e-3x" or "soon" never half-parses.
#pragma once

#include <cctype>
#include <cstdlib>
#include <optional>
#include <string>

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

}  // namespace ehdnn
