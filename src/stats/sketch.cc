#include "stats/sketch.h"

#include <cmath>

namespace tapo::stats {
namespace {

constexpr double kGamma =
    (1.0 + QuantileSketch::kAlpha) / (1.0 - QuantileSketch::kAlpha);
const double kInvLogGamma = 1.0 / std::log(kGamma);

}  // namespace

void QuantileSketch::observe(double v) {
  ++total_;
  if (!(v >= kMinTracked)) {  // negatives, zeros, and NaN all land here
    ++zero_count_;
    return;
  }
  const double idx = std::ceil(std::log(v) * kInvLogGamma);
  ++buckets_[static_cast<std::int32_t>(idx)];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  total_ += other.total_;
  zero_count_ += other.zero_count_;
  for (const auto& [idx, n] : other.buckets_) buckets_[idx] += n;
}

double QuantileSketch::quantile(double q) const {
  if (total_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target the order statistic at index floor(rank): walk cumulative
  // counts in ascending bucket order until the target index is covered.
  const double rank = q * static_cast<double>(total_ - 1);
  std::uint64_t cum = zero_count_;
  if (static_cast<double>(cum) > rank) return 0.0;
  for (const auto& [idx, n] : buckets_) {
    cum += n;
    if (static_cast<double>(cum) > rank) {
      return 2.0 * std::pow(kGamma, idx) / (kGamma + 1.0);
    }
  }
  // Floating-point slack at q == 1: return the top bucket's estimate.
  if (buckets_.empty()) return 0.0;
  return 2.0 * std::pow(kGamma, buckets_.rbegin()->first) / (kGamma + 1.0);
}

}  // namespace tapo::stats
