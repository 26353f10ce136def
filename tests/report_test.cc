// Tests for the aggregation/report layer.
#include <gtest/gtest.h>

#include "tapo/report.h"

namespace tapo::analysis {
namespace {

StallRecord stall(StallCause cause, double secs,
                  RetransCause rc = RetransCause::kNone) {
  StallRecord s;
  s.cause = cause;
  s.duration = Duration::seconds(secs);
  s.retrans_cause = rc;
  return s;
}

FlowAnalysis flow_with(std::vector<StallRecord> stalls) {
  FlowAnalysis fa;
  fa.transmission_time = Duration::seconds(10.0);
  for (const auto& s : stalls) {
    fa.stalled_time += s.duration;
    fa.stalls.push_back(s);
  }
  fa.stall_ratio = fa.stalled_time / fa.transmission_time;
  return fa;
}

TEST(Report, StallBreakdownFractions) {
  std::vector<FlowAnalysis> flows;
  flows.push_back(flow_with({
      stall(StallCause::kRetransmission, 2.0, RetransCause::kTailRetrans),
      stall(StallCause::kZeroWindow, 1.0),
      stall(StallCause::kClientIdle, 1.0),
  }));
  const auto bd = make_stall_breakdown(flows);
  EXPECT_EQ(bd.total_count, 3u);
  EXPECT_DOUBLE_EQ(bd.total_time.sec(), 4.0);
  EXPECT_DOUBLE_EQ(bd.volume_fraction(StallCause::kZeroWindow), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(bd.time_fraction(StallCause::kRetransmission), 0.5);
  EXPECT_DOUBLE_EQ(bd.time_fraction(StallCause::kDataUnavailable), 0.0);
}

TEST(Report, RetransBreakdownWithSplits) {
  auto d1 = stall(StallCause::kRetransmission, 3.0, RetransCause::kDoubleRetrans);
  d1.f_double = true;
  auto d2 = stall(StallCause::kRetransmission, 1.0, RetransCause::kDoubleRetrans);
  d2.f_double = false;
  auto t1 = stall(StallCause::kRetransmission, 2.0, RetransCause::kTailRetrans);
  t1.state_at_stall = tcp::CaState::kOpen;
  auto t2 = stall(StallCause::kRetransmission, 2.0, RetransCause::kTailRetrans);
  t2.state_at_stall = tcp::CaState::kRecovery;
  // Non-retransmission stalls are excluded from this breakdown.
  auto zw = stall(StallCause::kZeroWindow, 5.0);

  std::vector<FlowAnalysis> flows{flow_with({d1, d2, t1, t2, zw})};
  const auto bd = make_retrans_breakdown(flows);
  EXPECT_EQ(bd.total_count, 4u);
  EXPECT_DOUBLE_EQ(bd.total_time.sec(), 8.0);
  EXPECT_DOUBLE_EQ(bd.volume_fraction(RetransCause::kDoubleRetrans), 0.5);
  EXPECT_DOUBLE_EQ(bd.time_fraction(RetransCause::kDoubleRetrans), 0.5);
  EXPECT_DOUBLE_EQ(bd.f_double_time.sec(), 3.0);
  EXPECT_DOUBLE_EQ(bd.t_double_time.sec(), 1.0);
  EXPECT_DOUBLE_EQ(bd.tail_open_time.sec(), 2.0);
  EXPECT_DOUBLE_EQ(bd.tail_recovery_time.sec(), 2.0);
}

TEST(Report, ServiceSummaryAverages) {
  std::vector<FlowAnalysis> flows(2);
  flows[0].avg_speed_Bps = 100.0;
  flows[0].unique_bytes = 1000;
  flows[0].data_segments = 10;
  flows[0].retrans_segments = 1;
  flows[0].avg_rtt_us = 100'000;
  flows[0].avg_rto_us = 400'000;
  flows[1].avg_speed_Bps = 300.0;
  flows[1].unique_bytes = 3000;
  flows[1].data_segments = 30;
  flows[1].retrans_segments = 1;
  flows[1].avg_rtt_us = 200'000;
  flows[1].avg_rto_us = 600'000;
  const auto s = make_service_summary(flows);
  EXPECT_EQ(s.flows, 2u);
  EXPECT_DOUBLE_EQ(s.avg_speed_Bps, 200.0);
  EXPECT_DOUBLE_EQ(s.avg_flow_bytes, 2000.0);
  EXPECT_DOUBLE_EQ(s.pkt_loss, 2.0 / 40.0);
  EXPECT_DOUBLE_EQ(s.avg_rtt_us, 150'000.0);
  EXPECT_DOUBLE_EQ(s.avg_rto_us, 500'000.0);
}

TEST(Report, StallRatioCdf) {
  std::vector<FlowAnalysis> flows;
  flows.push_back(flow_with({stall(StallCause::kClientIdle, 5.0)}));
  flows.push_back(flow_with({}));
  const auto cdf = stall_ratio_cdf(flows);
  EXPECT_EQ(cdf.count(), 2u);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.percentile(1.0), 0.5);
}

TEST(Report, RttRtoCdfsSkipEmptyFlows) {
  std::vector<FlowAnalysis> flows(3);
  flows[0].avg_rtt_us = 100'000;
  flows[0].avg_rto_us = 300'000;
  flows[1].avg_rtt_us = 0;  // no samples
  flows[2].avg_rtt_us = 200'000;
  flows[2].avg_rto_us = 800'000;
  EXPECT_EQ(flow_rtt_cdf_ms(flows).count(), 2u);
  EXPECT_EQ(flow_rto_cdf_ms(flows).count(), 2u);
  const auto ratio = rto_over_rtt_cdf(flows);
  EXPECT_EQ(ratio.count(), 2u);
  EXPECT_DOUBLE_EQ(ratio.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(ratio.percentile(1.0), 4.0);
}

TEST(Report, ZeroRwndProbabilityBuckets) {
  std::vector<FlowAnalysis> flows(4);
  flows[0].init_rwnd_mss = 2;
  flows[0].had_zero_rwnd = true;
  flows[1].init_rwnd_mss = 2;
  flows[1].had_zero_rwnd = false;
  flows[2].init_rwnd_mss = 50;
  flows[2].had_zero_rwnd = false;
  flows[3].init_rwnd_mss = 50;
  flows[3].had_zero_rwnd = false;
  const auto prob = zero_rwnd_probability(flows, {0, 10, 100});
  ASSERT_EQ(prob.size(), 2u);
  EXPECT_DOUBLE_EQ(prob[0], 0.5);
  EXPECT_DOUBLE_EQ(prob[1], 0.0);
}

TEST(Report, StallContextCdfs) {
  auto s1 = stall(StallCause::kRetransmission, 1.0, RetransCause::kDoubleRetrans);
  s1.rel_position = 0.25;
  s1.in_flight = 5;
  auto s2 = stall(StallCause::kRetransmission, 1.0, RetransCause::kTailRetrans);
  s2.rel_position = 0.9;
  s2.in_flight = 1;
  std::vector<FlowAnalysis> flows{flow_with({s1, s2})};
  const auto pos = stall_position_cdf(flows, RetransCause::kDoubleRetrans);
  ASSERT_EQ(pos.count(), 1u);
  EXPECT_DOUBLE_EQ(pos.percentile(1.0), 0.25);
  const auto infl = stall_inflight_cdf(flows, RetransCause::kTailRetrans);
  ASSERT_EQ(infl.count(), 1u);
  EXPECT_DOUBLE_EQ(infl.percentile(1.0), 1.0);
}

TEST(Report, InflightOnAckCdf) {
  std::vector<FlowAnalysis> flows(1);
  flows[0].inflight_on_ack = {1, 2, 3, 10};
  const auto cdf = inflight_on_ack_cdf(flows);
  EXPECT_EQ(cdf.count(), 4u);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(3.0), 0.75);
}

TEST(Report, DescribeFlowMentionsCauses) {
  auto fa = flow_with(
      {stall(StallCause::kRetransmission, 1.0, RetransCause::kDoubleRetrans)});
  fa.stalls[0].f_double = true;
  const std::string d = describe_flow(fa);
  EXPECT_NE(d.find("retransmission"), std::string::npos);
  EXPECT_NE(d.find("double_retrans"), std::string::npos);
  EXPECT_NE(d.find("f-double"), std::string::npos);
}

TEST(Report, CauseNames) {
  EXPECT_STREQ(to_string(StallCause::kZeroWindow), "zero_rwnd");
  EXPECT_STREQ(to_string(StallCause::kDataUnavailable), "data_unavailable");
  EXPECT_STREQ(to_string(RetransCause::kContinuousLoss), "continuous_loss");
  EXPECT_STREQ(to_string(RetransCause::kNone), "none");
}

}  // namespace
}  // namespace tapo::analysis
