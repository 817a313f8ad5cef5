// Key=value spec-string argument parsing, shared by the harvest-source
// factory ("rf:base=0.2e-3,burst=5e-3"), the forecaster factory
// ("ema:prior=1.2e-3,alpha=0.5"), and the adaptive-scheduler spec
// ("adaptive:rich=3e-3,demote=2"). Keys are consumption-tracked so a
// typo'd key is an error instead of a silently applied default.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/parse.h"

namespace ehdnn {

class SpecArgs {
 public:
  // `spec` is the full spec string (for error messages); `args` is the
  // comma-separated key=value list after the kind prefix.
  SpecArgs(const std::string& spec, const std::string& args) : spec_(spec) {
    std::size_t pos = 0;
    while (pos < args.size()) {
      std::size_t comma = args.find(',', pos);
      if (comma == std::string::npos) comma = args.size();
      const std::string item = args.substr(pos, comma - pos);
      pos = comma + 1;
      if (item.empty()) continue;
      const std::size_t eq = item.find('=');
      check(eq != std::string::npos && eq > 0,
            "spec \"" + spec_ + "\": expected key=value, got \"" + item + "\"");
      kv_[item.substr(0, eq)] = item.substr(eq + 1);
    }
  }

  // Lower bound for a strictly positive num() field (a period, a
  // duration): the smallest positive normal double.
  static constexpr double kPositive = std::numeric_limits<double>::min();

  double num(const std::string& key, double fallback) {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    used_.push_back(key);
    // strtod accepts "nan" and "inf"; no spec field means either, and a
    // NaN slips past every later range check (all comparisons are false).
    const auto v = parse_double(it->second);
    check(v.has_value() && std::isfinite(*v),
          "spec \"" + spec_ + "\": bad number for " + key + ": \"" + it->second + "\"");
    return *v;
  }

  // A finite number key in [lo, hi] (lo = kPositive for "> 0");
  // `fallback` when the key is absent.
  double num(const std::string& key, double fallback, double lo, double hi) {
    const double v = num(key, fallback);
    if (v >= lo && v <= hi) return v;
    const auto text = [](double x) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", x);
      return std::string(buf);
    };
    const std::string range = (lo == kPositive ? "(0" : "[" + text(lo)) + ", " +
                              (std::isinf(hi) ? "inf)" : text(hi) + "]");
    fail("spec \"" + spec_ + "\": " + key + " must be in " + range + ", got " + text(v));
  }

  // An integer key in [lo, hi] (parse_int's grammar); `fallback` when
  // the key is absent.
  template <class Int>
  Int integer(const std::string& key, Int fallback, Int lo, Int hi) {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    used_.push_back(key);
    const auto v = parse_int(it->second, lo, hi);
    check(v.has_value(), "spec \"" + spec_ + "\": " + key + " must be an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) + "], got \"" +
                             it->second + "\"");
    return *v;
  }

  std::string str(const std::string& key, const std::string& fallback = "") {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    used_.push_back(key);
    return it->second;
  }

  // Call after construction: every provided key must have been consumed.
  void finish() const {
    for (const auto& [k, v] : kv_) {
      bool used = false;
      for (const auto& u : used_) used = used || u == k;
      check(used, "spec \"" + spec_ + "\": unknown key \"" + k + "\"");
    }
  }

 private:
  std::string spec_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> used_;
};

}  // namespace ehdnn
