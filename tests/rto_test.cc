// Tests for the RFC 6298 / Linux-style RTO estimator.
#include <gtest/gtest.h>

#include "tcp/rto.h"

namespace tapo::tcp {
namespace {

TEST(Rto, InitialValueBeforeSamples) {
  RtoEstimator e;
  EXPECT_FALSE(e.has_sample());
  EXPECT_EQ(e.rto(), Duration::seconds(3.0));  // TCP_TIMEOUT_INIT
  EXPECT_EQ(e.srtt(), Duration::zero());
}

TEST(Rto, FirstSampleSetsSrttAndVar) {
  RtoEstimator e;
  e.sample(Duration::millis(100));
  EXPECT_TRUE(e.has_sample());
  EXPECT_EQ(e.srtt(), Duration::millis(100));
  EXPECT_EQ(e.rttvar(), Duration::millis(50));
  // RTO = srtt + max(4*rttvar, kMinRto) = 100 + 200 = 300ms.
  EXPECT_EQ(e.rto(), Duration::millis(300));
}

TEST(Rto, LinuxFloorDominatesSmallVariance) {
  RtoEstimator e;
  // Feed identical samples until rttvar decays.
  for (int i = 0; i < 100; ++i) e.sample(Duration::millis(100));
  // rttvar -> ~0, so RTO -> srtt + kMinRto = 300ms.
  EXPECT_EQ(e.srtt(), Duration::millis(100));
  EXPECT_LT(e.rttvar(), Duration::millis(5));
  EXPECT_EQ(e.rto(), Duration::millis(300));
}

TEST(Rto, Ewma) {
  RtoEstimator e;
  e.sample(Duration::millis(100));
  e.sample(Duration::millis(200));
  // SRTT = 7/8*100 + 1/8*200 = 112.5ms.
  EXPECT_EQ(e.srtt().us(), 112'500);
  // RTTVAR = 3/4*50 + 1/4*|100-200| = 62.5ms.
  EXPECT_EQ(e.rttvar().us(), 62'500);
}

TEST(Rto, HighVarianceRaisesRto) {
  RtoEstimator e;
  e.sample(Duration::millis(100));
  e.sample(Duration::millis(500));
  // rttvar grows well past 50ms -> 4*rttvar term dominates the floor.
  EXPECT_GT(e.rto(), Duration::millis(500));
}

TEST(Rto, MinimumFloor) {
  RtoEstimator e;
  for (int i = 0; i < 50; ++i) e.sample(Duration::micros(100));
  EXPECT_GE(e.rto(), Duration::millis(200));
}

TEST(Rto, BackoffDoubles) {
  RtoEstimator e;
  for (int i = 0; i < 50; ++i) e.sample(Duration::millis(100));
  const Duration base = e.rto();
  e.backoff();
  EXPECT_EQ(e.rto(), base * 2);
  e.backoff();
  EXPECT_EQ(e.rto(), base * 4);
}

TEST(Rto, BackoffClearedBySample) {
  RtoEstimator e;
  e.sample(Duration::millis(100));
  e.backoff();
  e.backoff();
  const Duration backed = e.rto();
  e.sample(Duration::millis(100));
  EXPECT_LT(e.rto(), backed);
  EXPECT_EQ(e.backoff_exponent(), 0);
}

TEST(Rto, MaxClamp) {
  RtoEstimator e;
  e.sample(Duration::millis(500));
  for (int i = 0; i < 20; ++i) e.backoff();
  EXPECT_EQ(e.rto(), Duration::seconds(120.0));
}

TEST(Rto, ZeroSampleClamped) {
  RtoEstimator e;
  e.sample(Duration::zero());
  EXPECT_TRUE(e.has_sample());
  EXPECT_GE(e.rto(), Duration::millis(200));
}

}  // namespace
}  // namespace tapo::tcp
