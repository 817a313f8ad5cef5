#include "power/factory.h"

#include <cstdint>
#include <cstdlib>
#include <limits>

#include "power/trace.h"
#include "util/check.h"
#include "util/spec.h"

namespace ehdnn::power {

namespace {

// Field ranges. Harvested income only adds energy — the device's
// prepaid-energy budget and the capacitor's settlement invariant rely on
// that — so every power field is >= 0; periods, durations and rates are
// > 0; fractions of a period lie in [0, 1].
constexpr double kInf = std::numeric_limits<double>::infinity();

double watts(SpecArgs& a, const char* key, double fallback) {
  return a.num(key, fallback, 0.0, kInf);
}
double positive(SpecArgs& a, const char* key, double fallback) {
  return a.num(key, fallback, SpecArgs::kPositive, kInf);
}

std::unique_ptr<HarvestSource> make_const(const std::string&, SpecArgs& a) {
  return std::make_unique<ConstantSource>(watts(a, "w", 1e-3));
}

std::unique_ptr<HarvestSource> make_square(const std::string&, SpecArgs& a) {
  return std::make_unique<SquareSource>(watts(a, "hi", 4e-3), watts(a, "lo", 0.0),
                                        positive(a, "period", 0.02),
                                        a.num("duty", 0.5, 0.0, 1.0));
}

std::unique_ptr<HarvestSource> make_sine(const std::string&, SpecArgs& a) {
  return std::make_unique<SineSource>(watts(a, "mean", 2e-3), watts(a, "amp", 2e-3),
                                      positive(a, "period", 0.02));
}

std::unique_ptr<HarvestSource> make_rf(const std::string&, SpecArgs& a) {
  return std::make_unique<PoissonBurstSource>(
      watts(a, "base", 0.2e-3), watts(a, "burst", 5e-3), positive(a, "rate", 30.0),
      positive(a, "dur", 5e-3),
      a.integer<std::uint64_t>("seed", 1, 0, std::numeric_limits<std::uint64_t>::max()),
      positive(a, "horizon", 10.0));
}

std::unique_ptr<HarvestSource> make_solar(const std::string&, SpecArgs& a) {
  // The arch divides by the lit span, so daylight must be > 0.
  return std::make_unique<SolarDaySource>(watts(a, "peak", 5e-3), positive(a, "day", 1.0),
                                          a.num("daylight", 0.5, SpecArgs::kPositive, 1.0),
                                          watts(a, "floor", 0.0));
}

std::unique_ptr<HarvestSource> make_trace(const std::string& spec, SpecArgs& a) {
  const std::string path = a.str("path");
  check(!path.empty(), "harvest spec \"" + spec + "\": trace needs path=FILE");
  const std::string interp_s = a.str("interp", "linear");
  TraceInterp interp;
  if (interp_s == "linear") {
    interp = TraceInterp::kLinear;
  } else if (interp_s == "zoh") {
    interp = TraceInterp::kZeroOrderHold;
  } else {
    fail("harvest spec \"" + spec + "\": interp must be linear or zoh");
  }
  return std::make_unique<TraceHarvestSource>(load_trace_csv(path), interp,
                                              a.num("loop", 1.0) != 0.0,
                                              watts(a, "scale", 1.0));
}

// THE source-kind table: the factory dispatch and harvest_source_kinds()
// (what `--list-sources` prints) both derive from it, so the CLI listing
// cannot drift from what make_harvest_source accepts.
struct KindEntry {
  const char* kind;
  std::unique_ptr<HarvestSource> (*make)(const std::string& spec, SpecArgs& a);
};

constexpr KindEntry kKindTable[] = {
    {"const", make_const}, {"square", make_square}, {"sine", make_sine},
    {"rf", make_rf},       {"solar", make_solar},   {"trace", make_trace},
};

}  // namespace

const std::vector<std::string>& harvest_source_kinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> v;
    for (const auto& k : kKindTable) v.emplace_back(k.kind);
    return v;
  }();
  return kinds;
}

std::unique_ptr<HarvestSource> make_harvest_source(const std::string& spec) {
  const std::string kind = spec.substr(0, spec.find(':'));
  SpecArgs a(spec);
  for (const auto& k : kKindTable) {
    if (kind == k.kind) {
      auto src = k.make(spec, a);
      a.finish();
      return src;
    }
  }
  fail("harvest spec \"" + spec + "\": unknown kind \"" + kind + "\"");
}

}  // namespace ehdnn::power
