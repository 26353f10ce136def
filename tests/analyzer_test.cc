// TAPO analyzer tests: every leaf of the Fig.-5 decision tree and the
// Table-5 retransmission sub-classifier, exercised with hand-crafted flows
// where ground truth is known by construction.
#include <gtest/gtest.h>

#include "tapo/analyzer.h"
#include "tapo/report.h"

#include "support/flow_builder.h"

namespace tapo::analysis {
namespace {

using test::FlowBuilder;
using test::kBigWindow;
using test::kMss;

// With rtt=0.1: SRTT=100 ms, RTO ~= 300 ms; stall threshold 200 ms.

TEST(Analyzer, CleanFlowHasNoStalls) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  for (int i = 0; i < 10; i += 2) {
    b.data(t, i);
    b.data(t, i + 1);
    b.ack(t + 0.1, i + 2);
    t += 0.1;
  }
  const auto fa = b.analyze();
  EXPECT_TRUE(fa.stalls.empty());
  EXPECT_EQ(fa.data_segments, 10u);
  EXPECT_EQ(fa.retrans_segments, 0u);
  EXPECT_EQ(fa.unique_bytes, 10u * kMss);
  EXPECT_NEAR(fa.avg_rtt_us, 100'000.0, 1000.0);
}

TEST(Analyzer, DataUnavailableAtResponseHead) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  // Back-end fetch: the first response byte appears 600 ms later.
  b.data(0.7, 0);
  b.data(0.7, 1);
  b.ack(0.8, 2);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kDataUnavailable);
  EXPECT_NEAR(fa.stalls[0].duration.sec(), 0.6, 1e-6);
}

TEST(Analyzer, ResourceConstraintMidResponse) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.ack(0.25, 2);
  // The app starves the socket: next data only at 0.85 (mid-response).
  b.data(0.85, 2);
  b.ack(0.95, 3);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kResourceConstraint);
}

TEST(Analyzer, ClientIdleBetweenRequests) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.ack(0.25, 2);  // response 0 fully acked
  // Client thinks for a second, then requests again.
  b.request(1.25);
  b.data(1.3, 2);
  b.ack(1.4, 3);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kClientIdle);
}

TEST(Analyzer, SecondResponseHeadIsDataUnavailable) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.ack(0.25, 1);
  b.request(0.3);
  // Back-end fetch for the *second* response.
  b.data(0.95, 1);
  b.ack(1.05, 2);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kDataUnavailable);
}

TEST(Analyzer, ZeroWindowStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  // Client buffer full: zero window.
  b.ack(0.25, 2, {}, /*window=*/0);
  // Window update 700 ms later.
  b.ack(0.95, 2, {}, kBigWindow);
  b.data(1.0, 2);
  b.ack(1.1, 3);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kZeroWindow);
  EXPECT_TRUE(fa.had_zero_rwnd);
}

TEST(Analyzer, PacketDelayWithoutRetransmission) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  // The ACK shows up 400 ms late (jitter episode); nothing retransmitted.
  b.ack(0.55, 2);
  b.data(0.6, 2);
  b.ack(0.7, 3);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kPacketDelay);
  EXPECT_EQ(fa.retrans_segments, 0u);
}

TEST(Analyzer, TailRetransmissionStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.data(0.15, 2);  // tail segment — lost
  b.ack(0.25, 2);   // acks 0,1 only
  // Silence until the retransmission timer fires.
  b.data(0.65, 2);  // timeout retransmission of the tail
  b.ack(0.75, 3);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kRetransmission);
  EXPECT_EQ(fa.stalls[0].retrans_cause, RetransCause::kTailRetrans);
  EXPECT_EQ(fa.stalls[0].state_at_stall, tcp::CaState::kOpen);
  EXPECT_EQ(fa.timeout_retrans, 1u);
}

TEST(Analyzer, TailRetransInRecoveryState) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  for (int i = 0; i < 10; ++i) b.data(t, i);
  // Segment 5 lost; SACK-driven fast retransmit at ~0.26.
  b.ack(t + 0.1, 5, {{6, 7}});
  b.ack(t + 0.11, 5, {{6, 8}});
  b.ack(t + 0.12, 5, {{6, 9}});
  b.data(t + 0.13, 5);  // fast retransmit (elapsed ~130ms << RTO)
  // The fast retransmit of 5 arrives, but the tail segment 9 was also lost.
  b.ack(t + 0.23, 9);
  // Silence; timeout retransmission of the tail while still in Recovery.
  b.data(t + 0.65, 9);
  b.ack(t + 0.75, 10);
  const auto fa = b.analyze();
  ASSERT_GE(fa.stalls.size(), 1u);
  const auto& s = fa.stalls.back();
  EXPECT_EQ(s.cause, StallCause::kRetransmission);
  EXPECT_EQ(s.retrans_cause, RetransCause::kTailRetrans);
  EXPECT_EQ(s.state_at_stall, tcp::CaState::kRecovery);
  EXPECT_EQ(fa.fast_retrans, 1u);
}

TEST(Analyzer, FDoubleRetransmissionStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  for (int i = 0; i < 8; ++i) b.data(t, i);
  // Segment 1 lost; dupacks with growing SACKs.
  b.ack(t + 0.1, 1, {{2, 3}});
  b.ack(t + 0.11, 1, {{2, 4}});
  b.ack(t + 0.12, 1, {{2, 5}});
  b.data(t + 0.125, 1);  // fast retransmit — lost again
  b.ack(t + 0.13, 1, {{2, 8}});
  // Timeout retransmission after silence: the f-double stall.
  b.data(t + 0.60, 1);
  b.ack(t + 0.70, 8);
  const auto fa = b.analyze();
  ASSERT_GE(fa.stalls.size(), 1u);
  const auto& s = fa.stalls.back();
  EXPECT_EQ(s.cause, StallCause::kRetransmission);
  EXPECT_EQ(s.retrans_cause, RetransCause::kDoubleRetrans);
  EXPECT_TRUE(s.f_double);
}

TEST(Analyzer, TDoubleRetransmissionStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.data(0.15, 2);
  b.ack(0.25, 2);
  // First timeout retransmission of the tail (lost again)...
  b.data(0.65, 2);
  // ...and a second, backed-off timeout retransmission.
  b.data(1.45, 2);
  b.ack(1.55, 3);
  const auto fa = b.analyze();
  ASSERT_GE(fa.stalls.size(), 2u);
  const auto& s = fa.stalls.back();
  EXPECT_EQ(s.retrans_cause, RetransCause::kDoubleRetrans);
  EXPECT_FALSE(s.f_double);
  // The first stall was a plain tail retransmission.
  EXPECT_EQ(fa.stalls.front().retrans_cause, RetransCause::kTailRetrans);
}

TEST(Analyzer, SmallCwndRetransmissionStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  // Ramp: 10 segments acked cleanly.
  for (int i = 0; i < 10; i += 2) {
    b.data(t, i);
    b.data(t, i + 1);
    b.ack(t + 0.1, i + 2);
    t += 0.1;
  }
  // Two in flight; segment 10 lost, 11 SACKed (one dupack: below dupthres).
  b.data(t, 10);
  b.data(t, 11);
  b.ack(t + 0.1, 10, {{11, 12}});
  // Timeout retransmission.
  b.data(t + 0.55, 10);
  b.ack(t + 0.65, 12);
  // The response continues (so segment 10 is not at the tail).
  for (int i = 12; i < 18; ++i) b.data(t + 0.7, i);
  b.ack(t + 0.8, 18);
  const auto fa = b.analyze();
  ASSERT_GE(fa.stalls.size(), 1u);
  bool found = false;
  for (const auto& s : fa.stalls) {
    if (s.retrans_cause == RetransCause::kSmallCwnd) {
      found = true;
      EXPECT_LT(s.in_flight, 4u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Analyzer, SmallRwndRetransmissionStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  const std::uint32_t tiny = 2 * kMss;
  // Ramp with a *small advertised window* the whole time.
  for (int i = 0; i < 10; i += 2) {
    b.data(t, i);
    b.data(t, i + 1);
    b.ack(t + 0.1, i + 2, {}, tiny);
    t += 0.1;
  }
  b.data(t, 10);
  b.data(t, 11);
  b.ack(t + 0.1, 10, {{11, 12}}, tiny);
  b.data(t + 0.55, 10);  // timeout retransmission
  b.ack(t + 0.65, 12, {}, tiny);
  for (int i = 12; i < 18; ++i) b.data(t + 0.7, i);
  b.ack(t + 0.8, 18, {}, tiny);
  const auto fa = b.analyze();
  bool found = false;
  for (const auto& s : fa.stalls) {
    if (s.retrans_cause == RetransCause::kSmallRwnd) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Analyzer, ContinuousLossStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  for (int i = 0; i < 10; i += 2) {
    b.data(t, i);
    b.data(t, i + 1);
    b.ack(t + 0.1, i + 2);
    t += 0.1;
  }
  // Burst: six outstanding segments, all dropped by an outage.
  for (int i = 10; i < 16; ++i) b.data(t, i);
  // Silence, then timeout retransmission and slow-start re-sending of all.
  b.data(t + 0.5, 10);
  b.ack(t + 0.6, 11);
  b.data(t + 0.62, 11);
  b.data(t + 0.62, 12);
  b.ack(t + 0.72, 13);
  b.data(t + 0.74, 13);
  b.data(t + 0.74, 14);
  b.data(t + 0.74, 15);
  b.ack(t + 0.84, 16);
  // Response continues so the burst is not at the tail.
  for (int i = 16; i < 20; ++i) b.data(t + 0.9, i);
  b.ack(t + 1.0, 20);
  const auto fa = b.analyze();
  bool found = false;
  for (const auto& s : fa.stalls) {
    if (s.retrans_cause == RetransCause::kContinuousLoss) {
      found = true;
      EXPECT_GE(s.in_flight, 4u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Analyzer, AckDelayLossStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  for (int i = 0; i < 10; i += 2) {
    b.data(t, i);
    b.data(t, i + 1);
    b.ack(t + 0.1, i + 2);
    t += 0.1;
  }
  // Six outstanding; ALL delivered, but the ACKs are lost/delayed.
  for (int i = 10; i < 16; ++i) b.data(t, i);
  // Timeout retransmission of the head of the window...
  b.data(t + 0.5, 10);
  // ...and the client's (delayed) ACK reveals everything arrived: DSACK.
  b.ack_at(t + 0.6, FlowBuilder::seg(16),
           {{FlowBuilder::seg(10), FlowBuilder::seg(11)}});  // DSACK
  for (int i = 16; i < 20; ++i) b.data(t + 0.7, i);
  b.ack(t + 0.8, 20);
  const auto fa = b.analyze();
  bool found = false;
  for (const auto& s : fa.stalls) {
    if (s.retrans_cause == RetransCause::kAckDelayLoss) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(fa.spurious_retrans, 1u);
}

TEST(Analyzer, UndeterminedTopLevelStall) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.ack(0.25, 1);
  // A spontaneous duplicate ACK after a long quiet period with nothing
  // outstanding and no new data: no rule matches.
  b.ack(0.95, 1);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kUndetermined);
}

TEST(Analyzer, StallMetricsRecorded) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.data(0.15, 2);
  b.ack(0.25, 2);
  b.data(0.65, 2);
  b.ack(0.75, 3);
  const auto fa = b.analyze();
  ASSERT_EQ(fa.stalls.size(), 1u);
  const auto& s = fa.stalls[0];
  EXPECT_NEAR(s.duration.sec(), 0.4, 1e-6);
  EXPECT_NEAR(s.rel_position, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(fa.stalled_time, s.duration);
  EXPECT_GT(fa.stall_ratio, 0.0);
  EXPECT_LE(fa.stall_ratio, 1.0);
  // RTO was recorded for the timeout.
  ASSERT_EQ(fa.timeout_retrans, 1u);
  EXPECT_GT(fa.avg_rto_us, 200'000.0);
}

TEST(Analyzer, NoStallBeforeFirstRttSample) {
  // Without a handshake or any RTT sample the detector stays quiet (it has
  // no threshold to compare against).
  FlowBuilder b;
  b.flow.saw_syn = false;
  b.flow.saw_synack = false;
  b.request(0.1);
  b.data(5.0, 0);  // huge gap, but no SRTT yet
  b.ack(5.1, 1);
  const auto fa = b.analyze();
  EXPECT_TRUE(fa.stalls.empty());
}

TEST(Analyzer, TauConfigurable) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.ack(0.4, 2);  // 250 ms gap: stall at tau=2 (thresh 200ms)
  AnalyzerConfig strict;
  strict.tau = 2.0;
  EXPECT_EQ(b.analyze(strict).stalls.size(), 1u);
  AnalyzerConfig lax;
  lax.tau = 4.0;  // thresh min(400, 300) = 300ms: no stall
  EXPECT_TRUE(b.analyze(lax).stalls.empty());
}

TEST(Analyzer, InflightOnAckSamples) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  b.data(0.15, 1);
  b.ack(0.25, 1);  // one acked, one outstanding
  b.ack(0.26, 2);
  const auto fa = b.analyze();
  // Samples collected on every client ACK (incl. handshake/request).
  ASSERT_GE(fa.inflight_on_ack.size(), 2u);
  EXPECT_EQ(fa.inflight_on_ack[fa.inflight_on_ack.size() - 2], 1u);
  EXPECT_EQ(fa.inflight_on_ack.back(), 0u);
}

TEST(Analyzer, SpuriousFastRetransmitCountedViaDsack) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  double t = 0.15;
  for (int i = 0; i < 5; ++i) b.data(t, i);
  // Reordering looks like loss: dupacks, fast retransmit of 0...
  b.ack(t + 0.1, 0, {{1, 2}});
  b.ack(t + 0.11, 0, {{1, 3}});
  b.ack(t + 0.12, 0, {{1, 4}});
  b.data(t + 0.13, 0);  // fast retransmit
  // ...but the original arrives: cumulative ack + DSACK for segment 0.
  b.ack_at(t + 0.2, FlowBuilder::seg(5),
           {{FlowBuilder::seg(0), FlowBuilder::seg(1)}});
  const auto fa = b.analyze();
  EXPECT_EQ(fa.spurious_retrans, 1u);
  EXPECT_EQ(fa.fast_retrans, 1u);
}

// ---- Eq.-1 scoreboard edge cases ------------------------------------------
// in_flight = packets_out + retrans_out - (sacked_out + lost_out), read back
// through the per-ACK samples and the stall records. The first two samples
// always come from the handshake ACK and the request (empty window).

using Samples = std::vector<std::uint32_t>;

TEST(AnalyzerEq1, SackEdgesMidSegmentLeavePartialSegmentsUnsacked) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  for (int i = 0; i < 6; ++i) b.data(0.15, i);
  const auto s = FlowBuilder::seg;
  // Covers all of segment 2 but only halves of 1 and 3.
  b.ack_at(0.25, s(0), {{s(1) + 500, s(3) + 500}});
  // Covers 4 and 5; segment 3 misses its first byte. Three SACKed segments
  // now sit above 0 and 1, which are marked lost; 3 has only two above it.
  b.ack_at(0.26, s(0), {{s(3) + 1, s(6)}});
  // A block inside one segment SACKs nothing.
  b.ack_at(0.27, s(0), {{s(3), s(3) + 500}});
  b.ack(0.35, 6);
  const auto fa = b.analyze();
  EXPECT_EQ(fa.inflight_on_ack, (Samples{0, 0, 5, 1, 1, 0}));
  EXPECT_TRUE(fa.stalls.empty());
}

TEST(AnalyzerEq1, BlockStraddlingSndUnaAndOverlappingBlocks) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  for (int i = 0; i < 10; ++i) b.data(0.15, i);
  const auto s = FlowBuilder::seg;
  // Partial cumulative ACK: snd_una lands inside segment 2.
  b.ack_at(0.25, s(2) + 500);
  // One block starts below snd_una (SACKs 2 and 3), one is repeated, and
  // the last overlaps it: 8 from the first copy, 9 only from the last.
  b.ack_at(0.26, s(2) + 500,
           {{s(1), s(4)}, {s(8), s(9) + 500}, {s(8), s(9) + 500},
            {s(9), s(10)}});
  // Timeout: everything still outstanding is retransmitted.
  for (int i = 4; i < 8; ++i) b.data(0.9, i);
  b.ack(1.0, 10);
  const auto fa = b.analyze();
  EXPECT_EQ(fa.inflight_on_ack, (Samples{0, 0, 8, 4, 0}));
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].in_flight, 4u);
  EXPECT_EQ(fa.stalls[0].state_at_stall, tcp::CaState::kDisorder);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kRetransmission);
  EXPECT_EQ(fa.stalls[0].retrans_cause, RetransCause::kContinuousLoss);
  EXPECT_EQ(fa.timeout_retrans, 4u);
}

TEST(AnalyzerEq1, LostBySackHonoursDupthres) {
  // Eight segments; SACKs arrive for 2, then 2+4, 2+4-5, 2+4-6, 2+4-7.
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  for (int i = 0; i < 8; ++i) b.data(0.15, i);
  b.ack(0.25, 0, {{2, 3}});
  for (int top = 5; top <= 8; ++top) {
    b.ack(0.25 + 0.01 * (top - 4), 0, {{2, 3}, {4, top}});
  }
  b.ack(0.4, 8);
  // dupthres is 3: segments 0 and 1 stay in flight until three segments
  // above them are SACKed (2, 4, 5), and segment 3 until 4, 5 and 6 are.
  EXPECT_EQ(b.analyze().inflight_on_ack, (Samples{0, 0, 7, 6, 3, 1, 0, 0}));
}

TEST(AnalyzerEq1, SacksDuringLossAreMarkedAfterLeavingLoss) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  for (int i = 0; i < 4; ++i) b.data(0.15, i);
  b.data(0.8, 0);  // timeout: kLoss until snd_una reaches segment 4
  for (int i = 4; i < 10; ++i) b.data(0.81, i);
  // In kLoss, SACKs for 5-7 are recorded but nothing is marked lost by them.
  b.ack(0.9, 1, {{5, 8}});
  // Leaves kLoss; lost-marking runs from the next ACK on.
  b.ack(0.95, 4, {{5, 8}});
  // Disorder: segment 4 has three SACKed segments above it and is lost.
  b.ack(0.96, 4, {{5, 8}});
  b.ack(1.05, 10);
  const auto fa = b.analyze();
  EXPECT_EQ(fa.inflight_on_ack, (Samples{0, 0, 3, 3, 2, 0}));
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kRetransmission);
  EXPECT_EQ(fa.stalls[0].in_flight, 4u);
}

TEST(AnalyzerEq1, RetransmissionBelowSndUnaLeavesInFlightUnchanged) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  for (int i = 0; i < 6; ++i) b.data(0.15, i);
  b.ack(0.25, 3);
  b.data(0.30, 1);  // spurious fast retransmission of acked data
  b.ack(0.9, 6);
  const auto fa = b.analyze();
  EXPECT_EQ(fa.fast_retrans, 1u);
  EXPECT_EQ(fa.inflight_on_ack, (Samples{0, 0, 3, 0}));
  ASSERT_EQ(fa.stalls.size(), 1u);
  // The snapshot right after the retransmission: still segments 3-5 only.
  EXPECT_EQ(fa.stalls[0].in_flight, 3u);
  EXPECT_EQ(fa.stalls[0].state_at_stall, tcp::CaState::kRecovery);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kPacketDelay);
}

// ---- Transmit times under capture reordering -------------------------------

TEST(AnalyzerTxTimes, ContinuousLossUsesLatestNotLastTransmission) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  for (int i = 0; i < 6; ++i) b.data(0.15, i);
  b.data(0.30, 5);
  // A jittered, swapped record of another copy of segment 5: it is the
  // segment's last transmission in capture order but stamped before the
  // stall starts. Its 0.30 copy is what shows it was resent after it.
  b.data(0.15, 5);
  for (int i = 0; i < 5; ++i) b.data(0.9, i);  // timeout, go-back-N
  b.ack(1.0, 6);
  const auto fa = b.analyze();
  EXPECT_EQ(fa.fast_retrans, 2u);
  EXPECT_EQ(fa.timeout_retrans, 5u);
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].start, TimePoint::from_us(150'000));
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kRetransmission);
  EXPECT_EQ(fa.stalls[0].retrans_cause, RetransCause::kContinuousLoss);
}

TEST(AnalyzerTxTimes, LateRecordAdoptsGapSegmentAfterPartialRetransmission) {
  FlowBuilder b;
  b.handshake();
  b.request(0.1);
  b.data(0.15, 0);
  for (int i = 2; i < 6; ++i) b.data(0.15, i);  // segment 1 is a capture gap
  b.data(0.17, 1, 500);  // retransmits half of the inferred segment
  // The original record of segment 1, one slot late: it replaces the
  // segment's latest transmission time (0.17) with its own.
  b.data(0.16, 1);
  b.ack(0.25, 1, {{2, 6}});
  b.data(0.9, 1);  // timeout: 0.74 s after the adopted 0.16 transmission
  b.ack(1.0, 6);
  const auto fa = b.analyze();
  EXPECT_EQ(fa.capture.seq_gaps, 0u);
  EXPECT_EQ(fa.fast_retrans, 1u);
  EXPECT_EQ(fa.timeout_retrans, 1u);
  EXPECT_EQ(fa.avg_rto_us, 740'000.0);
  ASSERT_EQ(fa.stalls.size(), 1u);
  EXPECT_EQ(fa.stalls[0].cause, StallCause::kRetransmission);
  EXPECT_EQ(fa.stalls[0].retrans_cause, RetransCause::kDoubleRetrans);
  EXPECT_TRUE(fa.stalls[0].f_double);
  EXPECT_FALSE(fa.stalls[0].capture_suspect);
}

}  // namespace
}  // namespace tapo::analysis
