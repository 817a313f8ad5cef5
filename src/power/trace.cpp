#include "power/trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/math.h"
#include "util/parse.h"

namespace ehdnn::power {

namespace {

bool is_blank_or_comment(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool parse_field(const std::string& field, double* out) {
  const auto v = parse_double(field);
  if (!v) return false;
  *out = *v;
  return true;
}

// A row whose first non-space character could begin a number is data and
// may never be consumed as the optional header — a typo in the first
// sample of a headerless trace must throw, not silently drop the sample.
bool looks_like_data(const std::string& line) {
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' || c == '.';
  }
  return false;
}

[[noreturn]] void bad_row(const std::string& origin, std::size_t lineno,
                          const std::string& why) {
  fail_input("power trace " + origin + " line " + std::to_string(lineno) + ": " + why);
}

}  // namespace

PowerTrace parse_trace_csv(std::istream& in, const std::string& origin) {
  PowerTrace tr;
  std::string line;
  std::size_t lineno = 0;
  bool header_skipped = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (is_blank_or_comment(line)) continue;

    // At most ONE non-numeric row is tolerated, as the leading header;
    // any other unparsable row is malformed (a wrong delimiter must not
    // silently degrade the trace).
    auto skip_as_header_or_die = [&](const std::string& why) {
      if (tr.points.empty() && !header_skipped && !looks_like_data(line)) {
        header_skipped = true;
        return;
      }
      bad_row(origin, lineno, why);
    };
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) {
      skip_as_header_or_die("expected `time_s,power_w`, got \"" + line + "\"");
      continue;
    }
    double t = 0.0;
    double w = 0.0;
    const bool ok = parse_field(line.substr(0, comma), &t) &&
                    parse_field(line.substr(comma + 1), &w);
    if (!ok) {
      skip_as_header_or_die("malformed row \"" + line + "\"");
      continue;
    }
    if (!std::isfinite(t) || !std::isfinite(w)) {
      bad_row(origin, lineno, "non-finite value in \"" + line + "\"");
    }
    if (w < 0.0) bad_row(origin, lineno, "negative power " + std::to_string(w));
    if (!tr.points.empty() && t <= tr.points.back().t) {
      bad_row(origin, lineno,
              "non-monotonic timestamp " + std::to_string(t) + " (previous " +
                  std::to_string(tr.points.back().t) + ")");
    }
    tr.points.push_back({t, w});
  }
  check_input(!tr.points.empty(), "power trace " + origin + ": no samples");
  return tr;
}

PowerTrace load_trace_csv(const std::string& path) {
  std::ifstream f(path);
  check_input(f.good(), "power trace: cannot open " + path);
  return parse_trace_csv(f, path);
}

TraceHarvestSource::TraceHarvestSource(PowerTrace trace, TraceInterp interp, bool loop,
                                       double scale)
    : trace_(std::move(trace)), interp_(interp), loop_(loop), scale_(scale) {
  check(!trace_.empty(), "TraceHarvestSource: empty trace");
  check(scale_ >= 0.0, "TraceHarvestSource: negative scale");
}

double TraceHarvestSource::power_at(double t) const {
  const double span = trace_.span_s();
  // Map absolute time onto the trace's local clock.
  double u = t;
  if (loop_ && span > 0.0) {
    u = std::fmod(t, span);
    if (u < 0.0) u += span;
  }
  std::size_t hi = 0;
  return power_local(u, hi);
}

double TraceHarvestSource::power_seek(double t, SourceCursor& c) const {
  const double span = trace_.span_s();
  double u = t;
  if (loop_ && span > 0.0) {
    u = fmod_walk(t, span, c.cycle);
    if (u < 0.0) u += span;
  }
  return power_local(u, c.interval);
}

double TraceHarvestSource::power_local(double u, std::size_t& hi) const {
  const auto& pts = trace_.points;
  const double t0 = pts.front().t;
  u += t0;
  if (u <= t0) return scale_ * pts.front().watts;
  if (u >= pts.back().t) return scale_ * pts.back().watts;

  // pts[hi-1].t <= u < pts[hi].t: keep the interval when it still holds
  // u, otherwise find the first sample strictly after u.
  if (hi == 0 || !(pts[hi - 1].t <= u && u < pts[hi].t)) {
    const auto it = std::upper_bound(pts.begin(), pts.end(), u,
                                     [](double v, const TracePoint& p) { return v < p.t; });
    hi = static_cast<std::size_t>(it - pts.begin());
  }
  const TracePoint& a = pts[hi - 1];
  if (interp_ == TraceInterp::kZeroOrderHold) return scale_ * a.watts;
  const TracePoint& b = pts[hi];
  const double frac = (u - a.t) / (b.t - a.t);
  return scale_ * (a.watts + frac * (b.watts - a.watts));
}

double TraceHarvestSource::next_change_s(double t) const {
  if (interp_ != TraceInterp::kZeroOrderHold) return t;  // continuous: opt out
  if (t < 0.0) return t;
  const auto& pts = trace_.points;
  const double t0 = pts.front().t;
  const double span = trace_.span_s();
  if (pts.size() == 1 || span == 0.0) return std::numeric_limits<double>::infinity();
  // Same local-clock mapping as power_at; within one replay cycle the
  // local clock advances 1:1 with t, so a boundary at local time u_b lies
  // at absolute time t + (u_b - u).
  double u = t;
  if (loop_ && span > 0.0) {
    u = std::fmod(t, span);
    if (u < 0.0) u += span;
  }
  u += t0;
  if (u >= pts.back().t) {
    // Only reachable without looping: the last sample holds forever.
    return std::numeric_limits<double>::infinity();
  }
  if (u <= t0) return t + (pts[1].t - u);
  const auto it = std::upper_bound(pts.begin(), pts.end(), u,
                                   [](double v, const TracePoint& p) { return v < p.t; });
  // pts[hi-1].t <= u < pts[hi].t; the hold ends at pts[hi].t (for the last
  // interval that is the loop seam, where the replay steps back to the
  // front sample).
  return t + (it->t - u);
}

}  // namespace ehdnn::power
