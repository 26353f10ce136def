// Empirical CDF accumulator.
//
// Collects samples, then answers the percentile and P(X <= x) queries in
// which the paper's figures (Fig. 1, 3, 6, 7, 10, 11, 12) are reported.
// Samples are stored exactly; the datasets in this reproduction are small
// enough (millions of doubles) that a sketch is unnecessary and exactness
// simplifies testing.
#pragma once

#include <cstddef>
#include <vector>

namespace tapo::stats {

class Cdf {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  /// Pools another CDF's samples into this one.
  void merge(const Cdf& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Value at quantile q in [0, 1] (q=0.5 -> median). Requires non-empty.
  double percentile(double q) const;

  /// Fraction of samples <= x.
  double fraction_at_most(double x) const;

  double mean() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace tapo::stats
