// Byte-deterministic text formatting shared by the artifact writers
// (FLEET/SCENARIOS JSON, trace exports, fleet shard partials, sketch and
// contract-world serializations). One copy of each, so the formats those
// files pin cannot drift apart.
#pragma once

#include <cstdio>
#include <string>

namespace ehdnn {

// A JSON string literal: quotes and backslashes escaped, control
// characters replaced by a space.
inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Exact round-trip decimal form of a double (%.17g): parsing it back
// yields the bit-identical value.
inline std::string fmt_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace ehdnn
