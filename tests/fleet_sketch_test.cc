// QuantileSketch correctness: the documented relative-error bound must
// hold against the exact empirical distribution on uniform, lognormal and
// (bounded) Pareto samples — the three shapes the workload profiles
// generate — and merge must be exactly associative and commutative, since
// fleet merge determinism rests on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/cdf.h"
#include "stats/sketch.h"
#include "util/rng.h"

namespace tapo::stats {
namespace {

constexpr double kQuantiles[] = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                                 0.95, 0.99, 0.999};

// The sketch targets the order statistic at floor(q * (n - 1)); compute
// the exact one from the sorted sample so the bound check is strict.
double exact_order_statistic(std::vector<double> sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[std::min(rank, sorted.size() - 1)];
}

void expect_within_bound(const std::vector<double>& sample) {
  constexpr double alpha = QuantileSketch::kAlpha;
  QuantileSketch sketch;
  for (double v : sample) sketch.observe(v);
  ASSERT_EQ(sketch.count(), sample.size());

  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  for (double q : kQuantiles) {
    const double exact = exact_order_statistic(sorted, q);
    const double est = sketch.quantile(q);
    // Allow a hair of slack for the floating-point log/pow round trip.
    EXPECT_LE(std::abs(est - exact), alpha * exact * (1.0 + 1e-9))
        << "q=" << q << " exact=" << exact << " est=" << est
        << " alpha=" << alpha;
  }
}

TEST(QuantileSketch, BoundHoldsOnUniform) {
  Rng rng(101);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.uniform(1.0, 5000.0));
  expect_within_bound(sample);
}

TEST(QuantileSketch, BoundHoldsOnLognormal) {
  Rng rng(202);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.lognormal(8.0, 1.5));
  expect_within_bound(sample);
}

TEST(QuantileSketch, BoundHoldsOnPareto) {
  Rng rng(303);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) {
    sample.push_back(rng.bounded_pareto(1.2, 100.0, 1e7));
  }
  expect_within_bound(sample);
}

TEST(QuantileSketch, TracksInterpolatedCdfWithinCombinedSlack) {
  // Cdf::percentile interpolates between adjacent order statistics
  // (type 7), so the sketch can differ from it by the relative bound
  // plus at most one inter-order-statistic gap.
  Rng rng(404);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.lognormal(10.0, 1.0));
  QuantileSketch sketch;
  Cdf cdf;
  for (double v : sample) {
    sketch.observe(v);
    cdf.add(v);
  }
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const auto lo_rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    const double gap = sorted[std::min(lo_rank + 1, sorted.size() - 1)] -
                       sorted[lo_rank];
    const double exact = cdf.percentile(q);
    const double est = sketch.quantile(q);
    EXPECT_LE(std::abs(est - exact),
              QuantileSketch::kAlpha * exact + gap + 1e-9)
        << "q=" << q;
  }
}

TEST(QuantileSketch, HandlesZerosNegativesAndNan) {
  QuantileSketch sketch;
  sketch.observe(0.0);
  sketch.observe(-3.5);
  sketch.observe(std::nan(""));
  sketch.observe(10.0);
  EXPECT_EQ(sketch.count(), 4u);
  EXPECT_EQ(sketch.zero_count(), 3u);
  EXPECT_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_NEAR(sketch.quantile(1.0), 10.0, QuantileSketch::kAlpha * 10.0);
}

TEST(QuantileSketch, QuantileClampsAndEmptyReportsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  sketch.observe(42.0);
  EXPECT_EQ(sketch.quantile(-1.0), sketch.quantile(0.0));
  EXPECT_EQ(sketch.quantile(2.0), sketch.quantile(1.0));
}

QuantileSketch sketch_of(std::span<const double> values) {
  QuantileSketch s;
  for (double v : values) s.observe(v);
  return s;
}

TEST(QuantileSketch, MergeEqualsObservingTheUnion) {
  Rng rng(505);
  std::vector<double> all;
  for (int i = 0; i < 9000; ++i) all.push_back(rng.lognormal(7.0, 2.0));

  QuantileSketch whole = sketch_of(all);
  QuantileSketch merged = sketch_of({all.data(), 3000});
  merged.merge(sketch_of({all.data() + 3000, 3000}));
  merged.merge(sketch_of({all.data() + 6000, 3000}));
  EXPECT_EQ(merged, whole);  // bit-identical state, not merely close
}

TEST(QuantileSketch, MergeIsCommutative) {
  Rng rng(606);
  std::vector<double> xs, ys;
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.uniform(0.5, 100.0));
  for (int i = 0; i < 4000; ++i) ys.push_back(rng.bounded_pareto(1.5, 1.0, 1e6));

  QuantileSketch ab = sketch_of(xs);
  ab.merge(sketch_of(ys));
  QuantileSketch ba = sketch_of(ys);
  ba.merge(sketch_of(xs));
  EXPECT_EQ(ab, ba);
}

TEST(QuantileSketch, MergeIsAssociative) {
  Rng rng(707);
  std::vector<std::vector<double>> parts(3);
  for (auto& part : parts) {
    for (int i = 0; i < 2500; ++i) part.push_back(rng.lognormal(5.0, 1.0));
  }
  // (a + b) + c
  QuantileSketch left = sketch_of(parts[0]);
  left.merge(sketch_of(parts[1]));
  left.merge(sketch_of(parts[2]));
  // a + (b + c)
  QuantileSketch bc = sketch_of(parts[1]);
  bc.merge(sketch_of(parts[2]));
  QuantileSketch right = sketch_of(parts[0]);
  right.merge(bc);
  EXPECT_EQ(left, right);
}

TEST(QuantileSketch, RandomPartitionMergePropertyTest) {
  // Property test: any partition of the sample into any number of shards,
  // merged in any order, reproduces the single-sketch state exactly.
  Rng rng(808);
  std::vector<double> all;
  for (int i = 0; i < 5000; ++i) all.push_back(rng.lognormal(6.0, 1.8));
  const QuantileSketch whole = sketch_of(all);

  for (int iter = 0; iter < 20; ++iter) {
    const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<QuantileSketch> parts(shards);
    for (double v : all) {
      parts[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(shards) - 1))]
          .observe(v);
    }
    // Merge in a shuffled order.
    std::vector<std::size_t> order(shards);
    for (std::size_t i = 0; i < shards; ++i) order[i] = i;
    for (std::size_t i = shards; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    QuantileSketch merged;
    for (std::size_t i : order) merged.merge(parts[i]);
    ASSERT_EQ(merged, whole) << "iter " << iter << " shards " << shards;
  }
}

}  // namespace
}  // namespace tapo::stats
