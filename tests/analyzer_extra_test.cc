// Additional analyzer coverage: FIN-tail stalls, persist-probe episodes,
// multi-request response boundaries, configuration knobs, and the umbrella
// header compile check.
#include <gtest/gtest.h>

#include "tapo/tapo.h"  // umbrella header must compile standalone

#include <sstream>

#include "support/flow_builder.h"

namespace tapo::analysis {
namespace {

using test::FlowBuilder;
using test::kBigWindow;

TEST(AnalyzerExtra, LostFinClassifiedAsTailRetransmission) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.fin(0.15, 2);  // FIN right after the data — and it is lost
  b.ack(0.25, FlowBuilder::seg(2));
  // Timeout retransmission of the FIN.
  b.fin(0.65, 2);
  b.ack(0.75, FlowBuilder::seg(2) + 1);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kRetransmission);
  EXPECT_EQ(fa.stalls[0].retrans_cause, RetransCause::kTailRetrans);
}

TEST(AnalyzerExtra, PersistProbeGapsClassifiedAsZeroWindow) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.ack(0.25, FlowBuilder::seg(2), /*window=*/0);  // buffer full
  // Persist probe (1 byte) after ~RTO; window still zero.
  b.data(0.65, 2, 1);
  b.ack(0.75, FlowBuilder::seg(2) + 1, /*window=*/0);
  // Second probe after a backed-off interval.
  {
    auto& p = b.add(1.55, true);
    p.tcp.seq = FlowBuilder::seg(2) + 1;
    p.tcp.flags.ack = true;
    p.payload_len = 1;
  }
  b.ack(1.65, FlowBuilder::seg(2) + 2, kBigWindow);  // window reopens
  const auto fa = b.analyze();
  ASSERT_GE(fa.stalls.size(), 2u);
  for (const auto& s : fa.stalls) {
    EXPECT_EQ(s.cause, StallCause::kZeroWindow) << "stall at " << s.start.sec();
  }
  EXPECT_TRUE(fa.had_zero_rwnd);
}

TEST(AnalyzerExtra, ResponseBoundariesFromMultipleRequests) {
  // Two requests; a tail loss at the end of the FIRST response must be a
  // tail retransmission even though the flow continues afterwards.
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);  // lost: tail of response 1
  b.ack(0.25, FlowBuilder::seg(1));
  b.data(0.65, 1);  // timeout retransmission
  b.ack(0.75, FlowBuilder::seg(2));
  // Request 2 and a long second response.
  b.request(0.80);
  for (int i = 2; i < 12; ++i) b.data(0.85, i);
  b.ack(0.95, FlowBuilder::seg(12));
  const auto fa = b.analyze();
  bool tail_found = false;
  for (const auto& s : fa.stalls) {
    if (s.retrans_cause == RetransCause::kTailRetrans) tail_found = true;
  }
  EXPECT_TRUE(tail_found);
}

TEST(AnalyzerExtra, SpeedExcludesStalledTime) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.ack(0.25, FlowBuilder::seg(2));
  // One-second resource-constraint stall mid-flow.
  b.data(1.25, 2);
  b.data(1.25, 3);
  b.ack(1.35, FlowBuilder::seg(4));
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  // Active data phase = 1.2 s total - 1.0 s stalled = 0.2 s for 4000 bytes.
  EXPECT_NEAR(fa.avg_speed_Bps, 4000.0 / 0.2, 200.0);
}

TEST(AnalyzerExtra, SpeedIgnoresStallsBeforeTheDataPhase) {
  // A 0.5 s server-think stall ends at the first data packet; the 2 s data
  // phase after it holds no stall, so all of it is active.
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  const auto at_ms = [](int ms) { return ms / 1000.0; };
  for (int k = 0; k < 20; ++k) {
    b.data(at_ms(600 + 100 * k), k);
    b.ack(at_ms(700 + 100 * k), FlowBuilder::seg(k + 1));
  }
  for (const double tau : {2.0, 3.0}) {
    SCOPED_TRACE("tau " + std::to_string(tau));
    const auto fa = b.analyze({.tau = tau});
    ASSERT_EQ(fa.stalls.size(), 1u);
    EXPECT_EQ(fa.stalls[0].cause, StallCause::kDataUnavailable);
    EXPECT_EQ(fa.stalls[0].duration, Duration::millis(500));
    EXPECT_EQ(fa.unique_bytes, 20'000u);
    EXPECT_EQ(fa.avg_speed_Bps, static_cast<double>(fa.unique_bytes) / 2.0);
  }
}

TEST(AnalyzerExtra, UmbrellaHeaderTypesUsable) {
  // Smoke-check that every module surfaced by tapo/tapo.h is reachable.
  workload::ExperimentConfig cfg;
  cfg.profile = workload::web_search_profile();
  cfg.flows = 2;
  cfg.seed = 1;
  const auto res = workload::run_experiment(cfg);
  EXPECT_EQ(res.analyses.size(), 2u);
  std::stringstream ss;
  write_flows_csv(ss, res.analyses);
  EXPECT_FALSE(ss.str().empty());
}

}  // namespace
}  // namespace tapo::analysis
