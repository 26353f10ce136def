// Mergeable quantile sketch with a fixed relative-error bound.
//
// DDSketch-style log-bucket sketch: a value v > 0 lands in bucket
// i = ceil(log_gamma(v)) with gamma = (1 + kAlpha) / (1 - kAlpha), so bucket
// i covers (gamma^(i-1), gamma^i]. The bucket's representative value
// 2 * gamma^i / (gamma + 1) is within a factor of [1 - kAlpha, 1 + kAlpha]
// of every value in the bucket, which gives the guarantee: quantile(q)
// returns an estimate within kAlpha *relative* error of the exact order
// statistic at rank floor(q * (count - 1)).
//
// Unlike the exact stats::Cdf (which stores every sample), the sketch is
// bounded-size and *mergeable*: merge() adds integer bucket counts, so it
// is exactly associative and commutative — N shard sketches collapse to
// one fleet sketch whose state is bit-identical regardless of shard count
// and merge order. That property is what the fleet aggregation tier's
// determinism contract (DESIGN.md §13) is built on; it is property-tested
// in tests/fleet_sketch_test.cc.
#pragma once

#include <cstdint>
#include <map>

namespace tapo::stats {

class QuantileSketch {
 public:
  /// Relative accuracy: 2% — coarse enough that a fleet-wide sketch over
  /// microsecond durations stays under ~1k buckets.
  static constexpr double kAlpha = 0.02;

  /// Values below this are counted in the zero bucket (durations of zero,
  /// and anything too small to matter at microsecond granularity).
  static constexpr double kMinTracked = 1e-9;

  /// Records one sample. Values < kMinTracked (including negatives and
  /// NaN) land in the zero bucket and report as 0 from quantile().
  void observe(double v);

  /// Adds `other`'s buckets into this sketch. Integer adds: exactly
  /// associative and commutative.
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Estimate of the order statistic at rank floor(q * (count - 1)),
  /// within kAlpha relative error (exact 0.0 for zero-bucket ranks).
  /// q is clamped to [0, 1]; an empty sketch reports 0.0.
  double quantile(double q) const;

  /// Bit-identical-state comparison (the merge-determinism contract).
  bool operator==(const QuantileSketch&) const = default;

  // Introspection for tests and serializers.
  std::uint64_t zero_count() const { return zero_count_; }
  const std::map<std::int32_t, std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::uint64_t zero_count_ = 0;
  std::uint64_t total_ = 0;
  std::map<std::int32_t, std::uint64_t> buckets_;
};

}  // namespace tapo::stats
