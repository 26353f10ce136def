#include "stats/cdf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace tapo::stats {

void Cdf::merge(const Cdf& other) {
  if (&other == this) {
    // Self-merge: double every sample without aliasing the source range.
    const std::size_t n = samples_.size();
    samples_.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) samples_.push_back(samples_[i]);
  } else {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::percentile(double q) const {
  assert(!samples_.empty());
  ensure_sorted();
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  // Linear interpolation between closest ranks (type-7 quantile, the R and
  // NumPy default) so that tests have a precise definition to check against.
  const double h = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const double frac = h - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

double Cdf::fraction_at_most(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

}  // namespace tapo::stats
