// Tests for util: time types, deterministic RNG, strings, env parsing,
// and the worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "util/env.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/time.h"
#include "util/worker_pool.h"

namespace tapo {
namespace {

TEST(Duration, Conversions) {
  EXPECT_EQ(Duration::millis(1).us(), 1000);
  EXPECT_EQ(Duration::seconds(1.5).us(), 1'500'000);
  EXPECT_DOUBLE_EQ(Duration::micros(2500).ms(), 2.5);
  EXPECT_DOUBLE_EQ(Duration::millis(500).sec(), 0.5);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(3);
  EXPECT_EQ((a + b).us(), 13'000);
  EXPECT_EQ((a - b).us(), 7'000);
  EXPECT_EQ((a * 3).us(), 30'000);
  EXPECT_EQ((a / 2).us(), 5'000);
  EXPECT_DOUBLE_EQ(a / b, 10.0 / 3.0);
  EXPECT_EQ((a * 2.5).us(), 25'000);
}

TEST(Duration, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::millis(1), Duration::micros(1000));
  EXPECT_GT(Duration::max(), Duration::seconds(1e6));
}

TEST(TimePoint, Arithmetic) {
  const TimePoint t = TimePoint::from_us(1'000);
  EXPECT_EQ((t + Duration::micros(500)).us(), 1'500);
  EXPECT_EQ((t - Duration::micros(500)).us(), 500);
  EXPECT_EQ((t + Duration::millis(1)) - t, Duration::millis(1));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, BoundedParetoInRange) {
  Rng r(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.bounded_pareto(1.2, 1000.0, 1e7);
    EXPECT_GE(v, 1000.0 * 0.999);
    EXPECT_LE(v, 1e7 * 1.001);
  }
}

TEST(Rng, ChanceProbability) {
  Rng r(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitIndependence) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(1.7e6), "1.7MB");
  EXPECT_EQ(human_bytes(129e3), "129KB");
  EXPECT_EQ(human_bytes(14e3), "14KB");
  EXPECT_EQ(human_bytes(500), "500B");
  EXPECT_EQ(human_bytes(2.5e9), "2.5GB");
}

TEST(Strings, HumanUs) {
  EXPECT_EQ(human_us(1.2e6), "1.2s");
  EXPECT_EQ(human_us(143e3), "143ms");
  EXPECT_EQ(human_us(42), "42us");
}

TEST(Strings, Pct) { EXPECT_EQ(pct(0.454), "45.4%"); }

TEST(Strings, Split) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(split("xyz", '.').size(), 1u);
  EXPECT_EQ(split("", '.').size(), 1u);
}

TEST(Rng, SplitSeedMatchesSplit) {
  Rng a(42), b(42);
  const auto seed = a.split_seed();
  Rng from_seed(seed);
  Rng from_split = b.split();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(from_seed.next_u64(), from_split.next_u64());
  }
}

TEST(Env, ParsePositiveSizeAcceptsPlainDecimals) {
  EXPECT_EQ(util::parse_positive_size("400"), 400u);
  EXPECT_EQ(util::parse_positive_size("1"), 1u);
  EXPECT_EQ(util::parse_positive_size("6400000"), 6'400'000u);
}

TEST(Env, ParsePositiveSizeRejectsMalformedInput) {
  EXPECT_FALSE(util::parse_positive_size(""));
  EXPECT_FALSE(util::parse_positive_size("0"));
  EXPECT_FALSE(util::parse_positive_size("-3"));
  EXPECT_FALSE(util::parse_positive_size("+3"));
  EXPECT_FALSE(util::parse_positive_size("12x"));
  EXPECT_FALSE(util::parse_positive_size("x12"));
  EXPECT_FALSE(util::parse_positive_size(" 4"));
  EXPECT_FALSE(util::parse_positive_size("4 "));
  EXPECT_FALSE(util::parse_positive_size("1e6"));
  EXPECT_FALSE(util::parse_positive_size("0x10"));
  // Overflows std::size_t.
  EXPECT_FALSE(util::parse_positive_size("99999999999999999999999999"));
}

TEST(Env, ParseDoubleAcceptsDecimalsAndExponents) {
  EXPECT_EQ(util::parse_double("2"), 2.0);
  EXPECT_EQ(util::parse_double("-0.5"), -0.5);
  EXPECT_EQ(util::parse_double("0.05"), 0.05);
  EXPECT_EQ(util::parse_double("1e-3"), 1e-3);
  EXPECT_EQ(util::parse_double("-3E2"), -300.0);
  EXPECT_EQ(util::parse_double(".5"), 0.5);
}

TEST(Env, ParseDoubleRejectsMalformedOrNonFinite) {
  for (const char* bad : {"", "2x", "x2", " 2", "2 ", "+2", "1.5.2", "1e",
                          "0x10", "inf", "-inf", "nan", "1e400", "-1e400",
                          "1e-400"}) {
    EXPECT_FALSE(util::parse_double(bad)) << "'" << bad << "'";
  }
}

TEST(Env, EnvPositiveSizeFallsBackOnBadValues) {
  ::setenv("TAPO_TEST_ENV_SIZE", "123", 1);
  EXPECT_EQ(util::env_positive_size("TAPO_TEST_ENV_SIZE", 7), 123u);
  ::setenv("TAPO_TEST_ENV_SIZE", "bogus", 1);
  EXPECT_EQ(util::env_positive_size("TAPO_TEST_ENV_SIZE", 7), 7u);
  ::setenv("TAPO_TEST_ENV_SIZE", "0", 1);
  EXPECT_EQ(util::env_positive_size("TAPO_TEST_ENV_SIZE", 7), 7u);
  ::unsetenv("TAPO_TEST_ENV_SIZE");
  EXPECT_EQ(util::env_positive_size("TAPO_TEST_ENV_SIZE", 7), 7u);
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  util::WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(500);
  pool.for_each(hits.size(), [&](std::size_t i, std::size_t worker) {
    EXPECT_LT(worker, 4u);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.busy_seconds().size(), 4u);
}

TEST(WorkerPool, ReusableAcrossJobs) {
  util::WorkerPool pool(2);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> sum{0};
    pool.for_each(100, [&](std::size_t i, std::size_t) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(WorkerPool, PropagatesFirstTaskException) {
  util::WorkerPool pool(3);
  EXPECT_THROW(pool.for_each(50,
                             [&](std::size_t i, std::size_t) {
                               if (i == 10) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // Pool survives the failed job.
  std::atomic<int> count{0};
  pool.for_each(10, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(WorkerPool, ZeroThreadsClampsToOne) {
  util::WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GE(util::WorkerPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace tapo
