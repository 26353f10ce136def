// Tests for the Linux-style TCP sender: window management, the
// Open/Disorder/Recovery/Loss machine, fast retransmit, RTO behaviour, and
// the TLP / S-RTO recovery mechanisms.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "tcp/sender.h"

namespace tapo::tcp {
namespace {

constexpr std::uint32_t kMss = 1000;
constexpr net::Seq32 kIsn{1};

SenderConfig test_config() {
  SenderConfig cfg;
  cfg.mss = kMss;
  cfg.init_cwnd = 3;
  cfg.cc = CcAlgo::kReno;
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  std::vector<TcpSender::SegmentOut> sent;
  std::unique_ptr<TcpSender> sender;
  bool done = false;

  explicit Harness(SenderConfig cfg = test_config()) {
    sender = std::make_unique<TcpSender>(
        sim, cfg, [this](const TcpSender::SegmentOut& s) { sent.push_back(s); });
    sender->set_done_callback([this] { done = true; });
    sender->start(kIsn);
  }

  /// Seeds SRTT so RTO ~ 100 + 200 = 300 ms.
  void seed_rtt_100ms() {
    for (int i = 0; i < 20; ++i) sender->seed_rtt(Duration::millis(100));
  }

  void ack(net::Seq32 ack_seq, std::vector<net::SackBlock> sacks = {},
           std::uint32_t rwnd = 1 << 20) {
    sender->on_ack(ack_seq, rwnd, sacks, std::nullopt);
  }

  /// Runs the simulator forward by `d`.
  void advance(Duration d) { sim.run_until(sim.now() + d); }

  net::Seq32 seg_start(int i) const {
    return kIsn + static_cast<std::uint32_t>(i) * kMss;
  }
  net::SackBlock sack_of(int i, int n = 1) const {
    return {seg_start(i), seg_start(i + n)};
  }
};

TEST(Sender, InitialWindowLimitsFirstBurst) {
  Harness h;
  h.sender->app_write(10 * kMss);
  ASSERT_EQ(h.sent.size(), 3u);  // init_cwnd = 3
  EXPECT_EQ(h.sent[0].seq, kIsn);
  EXPECT_EQ(h.sent[1].seq, kIsn + kMss);
  EXPECT_EQ(h.sent[2].seq, kIsn + 2 * kMss);
  EXPECT_EQ(h.sender->in_flight(), 3u);
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
}

TEST(Sender, SlowStartGrowsWindowOnAcks) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(100 * kMss);
  h.advance(Duration::millis(100));
  h.ack(h.seg_start(2));  // 2 segments acked
  // cwnd 3 -> 5; 2 acked + 2 growth -> 4 more segments on the wire.
  EXPECT_EQ(h.sender->cwnd(), 5u);
  EXPECT_EQ(h.sent.size(), 7u);
  EXPECT_EQ(h.sender->in_flight(), 5u);
}

TEST(Sender, NoGrowthWhenAppLimited) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(2 * kMss);  // less than the window
  h.advance(Duration::millis(100));
  h.ack(h.seg_start(2));
  EXPECT_EQ(h.sender->cwnd(), 3u);  // not cwnd-limited, no growth
}

TEST(Sender, PartialSegmentAtStreamEnd) {
  Harness h;
  h.sender->app_write(kMss + 300);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[1].len, 300u);
}

TEST(Sender, FastRetransmitAfterDupthresSackedDupacks) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg_start(2));  // grow window, 7 sent
  const auto sent_before = h.sent.size();
  // Segment 2 (seq_start(2)) is lost; SACKs for 3, 4, 5 arrive.
  h.ack(h.seg_start(2), {h.sack_of(3)});
  EXPECT_EQ(h.sender->state(), CaState::kDisorder);
  h.ack(h.seg_start(2), {h.sack_of(3, 2)});
  h.ack(h.seg_start(2), {h.sack_of(3, 3)});
  EXPECT_EQ(h.sender->state(), CaState::kRecovery);
  // The head segment was retransmitted.
  bool head_retrans = false;
  for (std::size_t i = sent_before; i < h.sent.size(); ++i) {
    if (h.sent[i].retransmission && h.sent[i].seq == h.seg_start(2)) {
      head_retrans = true;
    }
  }
  EXPECT_TRUE(head_retrans);
  EXPECT_GE(h.sender->stats().fast_retransmits, 1u);
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
}

TEST(Sender, PureDupacksTriggerFastRetransmitWithoutSack) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(8 * kMss);
  h.advance(Duration::millis(10));
  const auto before = h.sent.size();
  // The first ACK establishes the peer window (a window change suppresses
  // dupack counting, as in the kernel); the next three are pure dupacks.
  h.ack(kIsn);
  h.ack(kIsn);
  h.ack(kIsn);
  h.ack(kIsn);
  EXPECT_EQ(h.sender->state(), CaState::kRecovery);
  ASSERT_GT(h.sent.size(), before);
  EXPECT_TRUE(h.sent.back().retransmission);
  EXPECT_EQ(h.sent.back().seq, kIsn);
}

TEST(Sender, LimitedTransmitSendsNewDataOnFirstDupacks) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(20 * kMss);  // 3 in flight, more pending
  h.advance(Duration::millis(10));
  const auto before = h.sent.size();
  h.ack(kIsn, {h.sack_of(1)});  // first dupack
  EXPECT_EQ(h.sender->state(), CaState::kDisorder);
  // Limited transmit plus SACK-freed window space let new (never
  // retransmitted) segments flow before fast retransmit triggers.
  ASSERT_GT(h.sent.size(), before);
  for (std::size_t i = before; i < h.sent.size(); ++i) {
    EXPECT_FALSE(h.sent[i].retransmission);
  }
  const auto after_first = h.sent.size();
  h.ack(kIsn, {h.sack_of(1, 2)});  // second dupack
  EXPECT_GT(h.sent.size(), after_first);
  EXPECT_FALSE(h.sent.back().retransmission);
  EXPECT_EQ(h.sender->state(), CaState::kDisorder);
}

TEST(Sender, RecoveryCompletionRestoresOpenAndSsthresh) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg_start(2));
  // Lose segment 2; recover it.
  h.ack(h.seg_start(2), {h.sack_of(3)});
  h.ack(h.seg_start(2), {h.sack_of(3, 2)});
  h.ack(h.seg_start(2), {h.sack_of(3, 3)});
  ASSERT_EQ(h.sender->state(), CaState::kRecovery);
  const std::uint32_t ssthresh = h.sender->ssthresh();
  // Full ACK beyond high_seq ends recovery.
  h.ack(h.sender->snd_nxt());
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
  EXPECT_LE(h.sender->cwnd(), std::max(ssthresh, 2u));
}

TEST(Sender, RtoFiresWithInitialTimerWithoutRttSample) {
  Harness h;
  h.sender->app_write(2 * kMss);
  h.advance(Duration::seconds(2.9));
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
  h.advance(Duration::seconds(0.2));  // past the 3 s initial RTO
  EXPECT_EQ(h.sender->stats().rto_fires, 1u);
  EXPECT_EQ(h.sender->state(), CaState::kLoss);
  EXPECT_EQ(h.sender->cwnd(), 1u);
  // Head was retransmitted.
  EXPECT_TRUE(h.sent.back().retransmission);
  EXPECT_EQ(h.sent.back().seq, kIsn);
}

TEST(Sender, RtoBackoffDoubles) {
  Harness h;
  h.seed_rtt_100ms();  // RTO = 300 ms
  h.sender->app_write(kMss);
  h.advance(Duration::millis(350));
  EXPECT_EQ(h.sender->stats().rto_fires, 1u);
  // Next RTO should take ~600 ms, not ~300.
  h.advance(Duration::millis(450));
  EXPECT_EQ(h.sender->stats().rto_fires, 1u);
  h.advance(Duration::millis(250));
  EXPECT_EQ(h.sender->stats().rto_fires, 2u);
}

TEST(Sender, LossStateRecoversViaSlowStart) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(6 * kMss);
  h.advance(Duration::millis(400));  // RTO fires, all marked lost
  ASSERT_EQ(h.sender->state(), CaState::kLoss);
  // Acks arrive for retransmissions; window regrows and segments flow.
  h.ack(h.seg_start(1));
  EXPECT_GE(h.sender->cwnd(), 2u);
  h.ack(h.seg_start(3));
  h.ack(h.seg_start(6));
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
  EXPECT_EQ(h.sender->in_flight(), 0u);
}

TEST(Sender, RwndLimitsSending) {
  Harness h;
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  // Client advertises only 2 MSS.
  h.ack(h.seg_start(3), {}, 2 * kMss);
  // snd_nxt can be at most snd_una + 2*kMss.
  EXPECT_LE(h.sender->snd_nxt(), h.seg_start(3) + 2 * kMss);
}

TEST(Sender, ZeroWindowTriggersPersistProbes) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg_start(3), {}, 0);  // zero window, everything acked
  EXPECT_EQ(h.sender->stats().zero_window_episodes, 1u);
  EXPECT_EQ(h.sender->in_flight(), 0u);
  const auto before = h.sent.size();
  h.advance(Duration::seconds(1.0));
  // At least one 1-byte window probe went out.
  ASSERT_GT(h.sent.size(), before);
  EXPECT_EQ(h.sent[before].len, 1u);
  EXPECT_GE(h.sender->stats().persist_probes, 1u);
  // Window reopens: transfer resumes with full segments.
  h.ack(h.sender->snd_nxt(), {}, 1 << 20);
  EXPECT_GT(h.sender->in_flight(), 0u);
  EXPECT_EQ(h.sent.back().len, kMss);
}

TEST(Sender, FinAfterDataAndDoneCallback) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(2 * kMss);
  h.sender->app_close();
  // Data segments + FIN on the wire.
  ASSERT_EQ(h.sent.size(), 3u);
  EXPECT_TRUE(h.sent[2].fin);
  EXPECT_EQ(h.sent[2].len, 0u);
  EXPECT_FALSE(h.done);
  h.ack(h.seg_start(2) + 1);  // covers data + FIN
  EXPECT_TRUE(h.done);
  EXPECT_TRUE(h.sender->finished());
}

TEST(Sender, FinRetransmittedOnRto) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(kMss);
  h.sender->app_close();
  h.ack(h.seg_start(1));  // data acked; FIN outstanding
  const auto before = h.sent.size();
  h.advance(Duration::seconds(1.0));
  ASSERT_GT(h.sent.size(), before);
  EXPECT_TRUE(h.sent.back().fin);
  EXPECT_TRUE(h.sent.back().retransmission);
  h.ack(h.seg_start(1) + 1);
  EXPECT_TRUE(h.done);
}

TEST(Sender, DupthresAdaptsOnDsack) {
  Harness h;
  h.sender->app_write(3 * kMss);
  EXPECT_EQ(h.sender->dupthres(), 3u);
  h.sender->on_ack(kIsn, 1 << 20, {}, net::SackBlock{kIsn, kIsn + kMss});
  EXPECT_EQ(h.sender->dupthres(), 4u);
  EXPECT_EQ(h.sender->stats().dsacks_received, 1u);
}

TEST(Sender, DataCarryingAcksAreNotDupacks) {
  Harness h;
  h.seed_rtt_100ms();
  h.sender->app_write(8 * kMss);
  h.advance(Duration::millis(10));
  for (int i = 0; i < 5; ++i) {
    h.sender->on_ack(kIsn, 1 << 20, {}, std::nullopt, /*carries_data=*/true);
  }
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
  EXPECT_EQ(h.sender->stats().retransmissions, 0u);
}

// ---------------------------------------------------------------- TLP ----

TEST(Tlp, ProbeRetransmitsTailBeforeRto) {
  SenderConfig cfg = test_config();
  cfg.recovery = RecoveryMechanism::kTlp;
  Harness h(cfg);
  h.seed_rtt_100ms();  // PTO = 2*SRTT = 200 ms < RTO 300 ms
  h.sender->app_write(3 * kMss);  // everything sent; no more new data
  const auto before = h.sent.size();
  h.advance(Duration::millis(250));
  ASSERT_GT(h.sent.size(), before);
  EXPECT_EQ(h.sender->stats().tlp_probes, 1u);
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
  // The probe re-sends the *tail* segment.
  EXPECT_TRUE(h.sent.back().retransmission);
  EXPECT_EQ(h.sent.back().seq, h.seg_start(2));
  // cwnd untouched by the probe.
  EXPECT_EQ(h.sender->cwnd(), 3u);
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
}

TEST(Tlp, ProbeSendsNewDataWhenAvailable) {
  SenderConfig cfg = test_config();
  cfg.recovery = RecoveryMechanism::kTlp;
  cfg.init_cwnd = 2;
  Harness h(cfg);
  h.seed_rtt_100ms();
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(20));
  h.ack(h.seg_start(1));       // one acked; cwnd-limited? one left
  h.sender->app_write(kMss);   // new data appears
  // Force the in-flight below cwnd so the probe can take the new-data path.
  const auto before = h.sent.size();
  h.advance(Duration::millis(400));
  ASSERT_GT(h.sent.size(), before);
  EXPECT_GE(h.sender->stats().tlp_probes, 1u);
}

TEST(Tlp, OneProbePerEpisodeThenRto) {
  SenderConfig cfg = test_config();
  cfg.recovery = RecoveryMechanism::kTlp;
  Harness h(cfg);
  h.seed_rtt_100ms();
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(250));
  EXPECT_EQ(h.sender->stats().tlp_probes, 1u);
  // No second probe: the native RTO takes over.
  h.advance(Duration::millis(400));
  EXPECT_EQ(h.sender->stats().tlp_probes, 1u);
  EXPECT_GE(h.sender->stats().rto_fires, 1u);
}

TEST(Tlp, NotArmedOutsideOpenState) {
  SenderConfig cfg = test_config();
  cfg.recovery = RecoveryMechanism::kTlp;
  Harness h(cfg);
  h.seed_rtt_100ms();
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg_start(2));
  // Enter recovery.
  h.ack(h.seg_start(2), {h.sack_of(3)});
  h.ack(h.seg_start(2), {h.sack_of(3, 2)});
  h.ack(h.seg_start(2), {h.sack_of(3, 3)});
  ASSERT_EQ(h.sender->state(), CaState::kRecovery);
  const auto probes = h.sender->stats().tlp_probes;
  h.advance(Duration::millis(250));
  EXPECT_EQ(h.sender->stats().tlp_probes, probes);
}

// --------------------------------------------------------------- S-RTO ---

SenderConfig srto_config() {
  SenderConfig cfg = test_config();
  cfg.recovery = RecoveryMechanism::kSrto;
  cfg.srto.t1 = 10;
  cfg.srto.t2 = 5;
  return cfg;
}

TEST(Srto, ProbeRetransmitsHeadAtTwoSrtt) {
  Harness h(srto_config());
  h.seed_rtt_100ms();
  h.sender->app_write(3 * kMss);
  const auto before = h.sent.size();
  h.advance(Duration::millis(210));  // 2*SRTT = 200 ms
  ASSERT_GT(h.sent.size(), before);
  EXPECT_EQ(h.sender->stats().srto_probes, 1u);
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
  // Unlike TLP, S-RTO retransmits the *first* unacked segment.
  EXPECT_TRUE(h.sent.back().retransmission);
  EXPECT_EQ(h.sent.back().seq, kIsn);
  // Alg. 1: enters Recovery.
  EXPECT_EQ(h.sender->state(), CaState::kRecovery);
  // cwnd (3) <= T2 (5): no halving.
  EXPECT_EQ(h.sender->cwnd(), 3u);
}

TEST(Srto, HalvesCwndOnlyAboveT2) {
  Harness h(srto_config());
  h.seed_rtt_100ms();
  h.sender->app_write(50 * kMss);
  // Grow cwnd past T2 with clean acks.
  std::uint32_t acked = 0;
  while (h.sender->cwnd() < 8) {
    h.advance(Duration::millis(100));
    acked += 2;
    h.ack(h.seg_start(static_cast<int>(acked)));
  }
  const std::uint32_t cwnd = h.sender->cwnd();
  // Probe fires at 2*SRTT, comfortably before the RTO (SRTT + 200 ms).
  h.advance(h.sender->rto_estimator().srtt() * 2 + Duration::millis(20));
  EXPECT_EQ(h.sender->stats().srto_probes, 1u);
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
  EXPECT_EQ(h.sender->cwnd(), cwnd / 2);
  EXPECT_EQ(h.sender->state(), CaState::kRecovery);
}

TEST(Srto, NotArmedWhenPacketsOutAtLeastT1) {
  SenderConfig cfg = srto_config();
  cfg.srto.t1 = 3;
  cfg.init_cwnd = 4;
  Harness h(cfg);
  h.seed_rtt_100ms();
  h.sender->app_write(4 * kMss);  // packets_out = 4 >= T1
  h.advance(Duration::millis(250));
  EXPECT_EQ(h.sender->stats().srto_probes, 0u);
  // The native RTO eventually fires instead.
  h.advance(Duration::millis(200));
  EXPECT_EQ(h.sender->stats().rto_fires, 1u);
}

TEST(Srto, FallsBackToNativeRtoAfterProbe) {
  Harness h(srto_config());
  h.seed_rtt_100ms();
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(210));
  ASSERT_EQ(h.sender->stats().srto_probes, 1u);
  // Probe lost too: native RTO follows (300 ms after the probe).
  h.advance(Duration::millis(350));
  EXPECT_EQ(h.sender->stats().rto_fires, 1u);
  // The head is now rto_retransmitted -> no further S-RTO probes for it.
  const auto probes = h.sender->stats().srto_probes;
  h.advance(Duration::seconds(1.0));
  EXPECT_EQ(h.sender->stats().srto_probes, probes);
}

TEST(Srto, RecoversDoubleRetransmissionWithoutRto) {
  // The f-double scenario (Fig. 9): a fast-retransmitted segment is lost
  // again. Native TCP needs a timeout; S-RTO repairs it with a probe.
  Harness h(srto_config());
  h.seed_rtt_100ms();
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg_start(2));
  // Segment 2 lost; fast retransmit fires after 3 sacked dupacks.
  h.ack(h.seg_start(2), {h.sack_of(3)});
  h.ack(h.seg_start(2), {h.sack_of(3, 2)});
  h.ack(h.seg_start(2), {h.sack_of(3, 3)});
  ASSERT_EQ(h.sender->state(), CaState::kRecovery);
  const auto fast = h.sender->stats().fast_retransmits;
  ASSERT_GE(fast, 1u);
  // The retransmission is lost as well. More sacks arrive, then silence.
  h.ack(h.seg_start(2), {h.sack_of(3, 5)});
  const auto before_probes = h.sender->stats().srto_probes;
  h.advance(Duration::millis(250));
  // S-RTO fires (packets_out < T1, head never RTO-retransmitted) and
  // re-sends the head — no RTO needed.
  EXPECT_GT(h.sender->stats().srto_probes, before_probes);
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
  EXPECT_EQ(h.sent.back().seq, h.seg_start(2));
  // The probe repairs the hole.
  h.ack(h.sender->snd_nxt());
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
}

}  // namespace
}  // namespace tapo::tcp
