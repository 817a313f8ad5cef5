// Deterministic, mergeable quantile sketch for streaming fleet metrics.
//
// Log-spaced bins (DDSketch-style): a value x > 0 lands in bin
// ceil(ln(x) / ln(gamma)) with gamma = (1 + a) / (1 - a), which bounds the
// relative error of any reported quantile by `a`. Bin counts are integers,
// so merging two sketches is a bin-wise add — commutative and associative —
// and serialization (bins emitted in ascending index order) is byte-identical
// no matter how a population was sharded or in which order shards merged.
// That property is what lets the fleet engine keep its
// byte-identical-for-any-parallelism contract while streaming per-job
// latencies instead of materializing them.
//
// Exact minimum and maximum are tracked alongside the bins (min/max merge
// exactly), so quantile(0) and quantile(1) are exact and interior quantile
// estimates are clamped into [min, max].
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace ehdnn {

class QuantileSketch {
 public:
  // `rel_err` is the guaranteed relative accuracy of quantile(); it is part
  // of the sketch identity — sketches only merge with an equal rel_err.
  explicit QuantileSketch(double rel_err = 0.01);

  void add(double x);

  // Bin-wise add of `other` into this sketch. Throws ehdnn::Error when the
  // two sketches were built with different rel_err.
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return count_; }
  double rel_err() const { return rel_err_; }
  double min() const;  // throws when empty
  double max() const;  // throws when empty

  // Nearest-rank quantile estimate, q in [0, 1]. Relative error bounded by
  // rel_err(); exact at q=0 and q=1. Throws when the sketch is empty.
  double quantile(double q) const;

  // Single-line text form: "qsketch-v1 rel_err=<r> count zero min max
  // i:c i:c ..." with bins in ascending index order. Deterministic for a
  // given multiset of added values regardless of add/merge order.
  void serialize(std::ostream& os) const;
  std::string serialize() const;
  static QuantileSketch deserialize(const std::string& line);

 private:
  int32_t bin_index(double x) const;
  double bin_value(int32_t index) const;

  double rel_err_;
  double gamma_;
  double log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;  // values <= kZeroThreshold
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<int32_t, std::uint64_t> bins_;  // ordered: deterministic iteration
};

}  // namespace ehdnn
