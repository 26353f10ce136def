// Edge-case sender tests: small windows, reordering and dupthres
// adaptation, persist/zero-window interplay, and recovery corner cases not
// covered by the main sender tests.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "tcp/sender.h"

namespace tapo::tcp {
namespace {

constexpr std::uint32_t kMss = 1000;
constexpr net::Seq32 kIsn{1};

struct Harness {
  sim::Simulator sim;
  std::vector<TcpSender::SegmentOut> sent;
  std::unique_ptr<TcpSender> sender;

  explicit Harness(SenderConfig cfg) {
    sender = std::make_unique<TcpSender>(
        sim, cfg, [this](const TcpSender::SegmentOut& s) { sent.push_back(s); });
    sender->start(kIsn);
    for (int i = 0; i < 20; ++i) sender->seed_rtt(Duration::millis(100));
  }
  void ack(net::Seq32 a, std::vector<net::SackBlock> sacks = {},
           std::uint32_t rwnd = 1 << 20) {
    sender->on_ack(a, rwnd, sacks, std::nullopt);
  }
  void advance(Duration d) { sim.run_until(sim.now() + d); }
  net::Seq32 seg(int i) const {
    return kIsn + static_cast<std::uint32_t>(i) * kMss;
  }
};

SenderConfig base_config() {
  SenderConfig cfg;
  cfg.mss = kMss;
  cfg.init_cwnd = 3;
  cfg.cc = CcAlgo::kReno;
  return cfg;
}

// ---- Small windows ----

TEST(SmallWindow, BelowDupthresWaitsForRto) {
  // The whole response is three segments and the first is lost: two
  // dupacks stay below dupthres, and 2.6.32 has no Early Retransmit
  // (RFC 5827) to lower it, so only the RTO recovers the loss.
  Harness h(base_config());
  h.sender->app_write(3 * kMss);
  h.advance(Duration::millis(10));
  h.ack(kIsn, {{h.seg(1), h.seg(2)}});
  h.ack(kIsn, {{h.seg(1), h.seg(3)}});
  EXPECT_NE(h.sender->state(), CaState::kRecovery);
  EXPECT_EQ(h.sender->stats().retransmissions, 0u);
  h.advance(Duration::millis(400));
  EXPECT_EQ(h.sender->stats().rto_fires, 1u);
}

// ---- Reordering / dupthres adaptation ----

TEST(Reordering, DupthresStopsRepeatedSpuriousRetransmits) {
  Harness h(base_config());
  h.sender->app_write(30 * kMss);
  h.advance(Duration::millis(10));
  // Reordering episode: 3 sacked dupacks -> spurious fast retransmit.
  h.ack(kIsn, {{h.seg(1), h.seg(2)}});
  h.ack(kIsn, {{h.seg(1), h.seg(3)}});
  h.ack(kIsn, {{h.seg(1), h.seg(4)}});
  ASSERT_EQ(h.sender->state(), CaState::kRecovery);
  const auto first_retrans = h.sender->stats().retransmissions;
  ASSERT_GE(first_retrans, 1u);
  // The "lost" original was merely reordered: a full ACK ends the episode
  // and its DSACK raises dupthres.
  h.sender->on_ack(h.sender->snd_nxt(), 1 << 20, {},
                   net::SackBlock{kIsn, h.seg(1)});
  EXPECT_EQ(h.sender->dupthres(), 4u);
  ASSERT_EQ(h.sender->state(), CaState::kOpen);
  // Regrow the window with clean acks, then replay the same 3-dupack
  // reordering pattern: it no longer triggers a fast retransmit.
  while (h.sender->packets_out() <= 5) {
    h.advance(Duration::millis(100));
    h.ack(h.sender->snd_una() + 2 * kMss);
  }
  const net::Seq32 una = h.sender->snd_una();
  const auto retrans_before = h.sender->stats().retransmissions;
  ASSERT_GT(h.sender->packets_out(), 4u);
  h.ack(una, {{una + kMss, una + 2 * kMss}});
  h.ack(una, {{una + kMss, una + 3 * kMss}});
  h.ack(una, {{una + kMss, una + 4 * kMss}});
  EXPECT_EQ(h.sender->stats().retransmissions, retrans_before);
  EXPECT_EQ(h.sender->state(), CaState::kDisorder);
  // A fourth dupack crosses the raised threshold.
  h.ack(una, {{una + kMss, una + 5 * kMss}});
  EXPECT_EQ(h.sender->state(), CaState::kRecovery);
}

TEST(Reordering, DupthresCapped) {
  Harness h(base_config());
  h.sender->app_write(3 * kMss);
  for (int i = 0; i < 20; ++i) {
    h.sender->on_ack(kIsn, 1 << 20, {}, net::SackBlock{kIsn, h.seg(1)});
  }
  EXPECT_EQ(h.sender->dupthres(), 10u);  // kMaxDupthres
}

// ---- Persist / zero-window corner cases ----

TEST(Persist, IntervalDoublesAcrossProbes) {
  Harness h(base_config());
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg(3), {}, 0);  // zero window after everything acked
  const auto count_probes = [&] { return h.sender->stats().persist_probes; };
  // First probe after ~RTO (300 ms), second ~600 ms later, third ~1.2 s.
  h.advance(Duration::millis(350));
  EXPECT_EQ(count_probes(), 1u);
  h.advance(Duration::millis(400));
  EXPECT_EQ(count_probes(), 1u);
  h.advance(Duration::millis(300));
  EXPECT_EQ(count_probes(), 2u);
  h.advance(Duration::millis(1300));
  EXPECT_EQ(count_probes(), 3u);
}

TEST(Persist, WindowReopeningResetsInterval) {
  Harness h(base_config());
  h.sender->app_write(20 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg(3), {}, 0);
  h.advance(Duration::seconds(1.5));
  const auto probes_first = h.sender->stats().persist_probes;
  EXPECT_GE(probes_first, 2u);
  // Window reopens; transfer resumes; then closes again.
  h.ack(h.sender->snd_nxt(), {}, 4 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.sender->snd_nxt(), {}, 0);
  // The persist interval restarts at ~RTO, not at the backed-off value.
  h.advance(Duration::millis(400));
  EXPECT_GT(h.sender->stats().persist_probes, probes_first);
}

TEST(Persist, ZeroWindowWithOutstandingDataUsesRto) {
  // rwnd drops to zero while data is still in flight: the RTO (not the
  // persist timer) governs, since the in-flight data may be acked.
  Harness h(base_config());
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg(1), {}, 0);  // 2 segments still in flight, window now 0
  EXPECT_GT(h.sender->packets_out(), 0u);
  h.advance(Duration::millis(500));
  EXPECT_GE(h.sender->stats().rto_fires, 1u);
}

// ---- Recovery corner cases ----

TEST(Recovery, PartialAckRetransmitsNextHole) {
  SenderConfig cfg = base_config();
  Harness h(cfg);
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg(2));
  // Segments 2 AND 3 lost; SACKs for 4..6 mark both lost (dupthres 3).
  h.ack(h.seg(2), {{h.seg(4), h.seg(5)}});
  h.ack(h.seg(2), {{h.seg(4), h.seg(6)}});
  h.ack(h.seg(2), {{h.seg(4), h.seg(7)}});
  ASSERT_EQ(h.sender->state(), CaState::kRecovery);
  // Both holes were marked lost and retransmitted by the SACK logic.
  int retrans_2 = 0, retrans_3 = 0;
  for (const auto& s : h.sent) {
    if (s.retransmission && s.seq == h.seg(2)) ++retrans_2;
    if (s.retransmission && s.seq == h.seg(3)) ++retrans_3;
  }
  EXPECT_EQ(retrans_2, 1);
  EXPECT_EQ(retrans_3, 1);
  // Partial ack (covers 2, not 3): recovery continues.
  h.ack(h.seg(3), {{h.seg(4), h.seg(7)}});
  EXPECT_EQ(h.sender->state(), CaState::kRecovery);
  // Full ack ends it.
  h.ack(h.sender->snd_nxt());
  EXPECT_EQ(h.sender->state(), CaState::kOpen);
}

TEST(Recovery, RtoDuringRecoveryMovesToLoss) {
  Harness h(base_config());
  h.sender->app_write(10 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg(2));
  h.ack(h.seg(2), {{h.seg(3), h.seg(4)}});
  h.ack(h.seg(2), {{h.seg(3), h.seg(5)}});
  h.ack(h.seg(2), {{h.seg(3), h.seg(6)}});
  ASSERT_EQ(h.sender->state(), CaState::kRecovery);
  // The retransmission is lost too; silence until the RTO.
  h.advance(Duration::seconds(1.0));
  EXPECT_EQ(h.sender->state(), CaState::kLoss);
  EXPECT_GE(h.sender->stats().rto_fires, 1u);
  EXPECT_EQ(h.sender->cwnd(), 1u);
}

TEST(Recovery, CwndNeverZero) {
  Harness h(base_config());
  h.sender->app_write(50 * kMss);
  for (int i = 0; i < 30; ++i) {
    h.advance(Duration::millis(150));
    h.ack(kIsn + static_cast<std::uint32_t>(i) * 500);  // odd partial acks
    ASSERT_GE(h.sender->cwnd(), 1u);
  }
}

TEST(Sender, AppWriteAfterIdleRestartsTransmission) {
  Harness h(base_config());
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(10));
  h.ack(h.seg(2));
  EXPECT_EQ(h.sender->in_flight(), 0u);
  h.advance(Duration::seconds(2.0));  // idle; no timers should fire
  EXPECT_EQ(h.sender->stats().rto_fires, 0u);
  h.sender->app_write(kMss);
  EXPECT_EQ(h.sent.size(), 3u);
  EXPECT_FALSE(h.sent.back().retransmission);
}

}  // namespace
}  // namespace tapo::tcp
