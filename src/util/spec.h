// Key=value argument parsing: the one parser behind every key=value
// input. Its users:
//   - "kind:key=value,..." specs (the comma-separated list after the
//     first ':'): the harvest-source factory ("rf:base=0.2e-3,burst=5e-3",
//     power/factory.cpp), the forecaster factory ("ema:prior=1.2e-3",
//     sched/forecast.cpp), the adaptive-scheduler spec
//     ("adaptive:rich=3e-3,demote=2", sched/adaptive.cpp) and the tile
//     runtime spec ("tile:t=64", core/flex/tile.cpp);
//   - fleet config lines, whitespace-separated (sim/fleet.cpp);
//   - scenario options, ';'-separated (sim/scenario.cpp);
//   - contract world and relock lines, whitespace-separated
//     (sched/contracts.cpp).
// An item splits at its first '=', so values may hold '=' and ','. A key
// given twice is an error, and so is a key no accessor consumed
// (finish()): a typo or a repeat is never silently replaced by a default
// or by the last value.
#pragma once

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/parse.h"

namespace ehdnn {

class SpecArgs {
 public:
  // `where` prefixes every error message ("fleet config line 3");
  // `items` are the key=value items, already split. Empty items are
  // skipped.
  SpecArgs(std::string where, std::span<const std::string> items) : where_(std::move(where)) {
    for (const std::string& item : items) {
      if (item.empty()) continue;
      const std::size_t eq = item.find('=');
      check(eq != std::string::npos && eq > 0,
            where_ + ": expected key=value, got \"" + item + "\"");
      const std::string key = item.substr(0, eq);
      check(kv_.emplace(key, item.substr(eq + 1)).second,
            where_ + ": duplicate key \"" + key + "\"");
    }
  }

  // A "kind[:key=value,...]" spec: the comma-separated items after the
  // first ':'; errors name the spec.
  explicit SpecArgs(const std::string& spec)
      : SpecArgs("spec \"" + spec + "\"", split(args_of(spec), ',')) {}

  // Lower bound for a strictly positive num() field (a period, a
  // duration): the smallest positive normal double.
  static constexpr double kPositive = std::numeric_limits<double>::min();

  // Every key in `keys` must be given, with a non-empty value.
  void require(std::initializer_list<const char*> keys) const {
    for (const char* key : keys) {
      const auto it = kv_.find(key);
      check(it != kv_.end() && !it->second.empty(),
            where_ + ": missing key \"" + std::string(key) + "\"");
    }
  }

  double num(const std::string& key, double fallback) {
    const std::string* text = take(key);
    if (text == nullptr) return fallback;
    // strtod accepts "nan" and "inf"; no key means either, and a NaN
    // slips past every later range check (all comparisons are false).
    const auto v = parse_double(*text);
    check(v.has_value() && std::isfinite(*v),
          where_ + ": bad number for " + key + ": \"" + *text + "\"");
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
    fail(where_ + ": " + key + " must be in " + range + ", got " + text(v));
  }

  // An integer key in [lo, hi] (parse_int's grammar); `fallback` when
  // the key is absent.
  template <class Int>
  Int integer(const std::string& key, Int fallback, Int lo, Int hi) {
    const std::string* text = take(key);
    if (text == nullptr) return fallback;
    const auto v = parse_int(*text, lo, hi);
    check(v.has_value(), where_ + ": " + key + " must be an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) + "], got \"" +
                             *text + "\"");
    return *v;
  }

  std::string str(const std::string& key, const std::string& fallback = "") {
    const std::string* text = take(key);
    return text == nullptr ? fallback : *text;
  }

  // Call after the accessors: every given key must have been consumed.
  void finish() const {
    for (const auto& [k, v] : kv_) {
      check(used_.count(k) != 0, where_ + ": unknown key \"" + k + "\"");
    }
  }

 private:
  static std::string args_of(const std::string& spec) {
    const std::size_t colon = spec.find(':');
    return colon == std::string::npos ? "" : spec.substr(colon + 1);
  }

  // The value of `key`, marked consumed; nullptr when absent.
  const std::string* take(const std::string& key) {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return nullptr;
    used_.insert(key);
    return &it->second;
  }

  std::string where_;
  std::map<std::string, std::string> kv_;
  std::set<std::string> used_;
};

}  // namespace ehdnn
