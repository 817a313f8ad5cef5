#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

using ehdnn::obs::EventKind;

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  const long m = static_cast<long>(n) + 1;
  auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
  } else {
    failures_.push_back(what);
  }
}

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRecharge: return "power.recharge";
    case SpanKind::kCheckpoint: return "flex.checkpoint";
    case SpanKind::kSelect: return "sched.select";
    case SpanKind::kArm: return "sched.arm";
    case SpanKind::kBoot: return "flex.boot";
    case SpanKind::kKernel: return "ace.kernel";
    case SpanKind::kDevice: return "sim.device";
    case SpanKind::kBuild: return "sim.build";
    case SpanKind::kCell: return "sim.cell";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanKind classify_slice(const long* before, const long* after, SliceEvents* ev) {
  auto delta = [&](EventKind k) { return after[static_cast<int>(k)] - before[static_cast<int>(k)]; };
  auto moved = [&](EventKind k) { return delta(k) != 0; };
  ev->browned_out = moved(EventKind::kBrownOut);
  // Every FLEX layer slice that returns ends with the mandatory
  // header-only layer-transition checkpoint; only the writes beyond it
  // are the warning-driven (or degraded-mode) checkpoints this phase is
  // about. A slice that browned out never reached its header.
  const long begins = delta(EventKind::kCheckpointBegin);
  ev->checkpoints = begins - (begins > 0 && !ev->browned_out ? 1 : 0);
  if (moved(EventKind::kRecovery)) return SpanKind::kRecharge;
  if (ev->checkpoints > 0) return SpanKind::kCheckpoint;
  if (moved(EventKind::kTierSelect) || moved(EventKind::kTierSwitch) ||
      moved(EventKind::kTierDemote)) {
    return SpanKind::kSelect;
  }
  if (moved(EventKind::kJobRelease)) return SpanKind::kArm;
  if (moved(EventKind::kBoot)) return SpanKind::kBoot;
  return SpanKind::kKernel;
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<double> self(kSpanKinds, 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[static_cast<std::size_t>(s.kind)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

void SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id\tparent\tname\tdevice\tjob\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%d\t%d\t%lld\t%lld\n", i, s.parent, span_name(s.kind),
                 s.device, static_cast<int>(s.job), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot finish writing " + path);
}

long LayerCounts::total_slices() const {
  long t = 0;
  for (long s : slices) t += s;
  return t;
}

bool LayerCounts::same_as(const LayerCounts& o) const {
  // Every field is a long or a double with no padding between them, so
  // the object representations compare bit for bit.
  static_assert(sizeof(LayerCounts) == sizeof(long) * (kPhaseCount + 2 + ehdnn::obs::kKindCount + 3) +
                                           sizeof(double) * (kRails + 1 + 2 * kLayerGroups),
                "LayerCounts has padding; compare field by field");
  return std::memcmp(this, &o, sizeof(LayerCounts)) == 0;
}

std::string hexbits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

long counter_of(const ehdnn::obs::MetricsRegistry& m, const std::string& name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second;
}

}  // namespace perfbench
