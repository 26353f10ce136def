// Tests for the sender extensions beyond the measured 2.6.32 kernel:
// pacing (§4.3's suggested continuous-loss mitigation) and adaptive S-RTO
// probe suppression (the paper's stated future work), plus the kernel's
// behaviour after a timeout that a DSACK proves spurious.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/ipv4.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/sender.h"
#include "util/rng.h"

namespace tapo::tcp {
namespace {

constexpr std::uint32_t kMss = 1000;
constexpr net::Seq32 kIsn{1};

struct Harness {
  sim::Simulator sim;
  std::vector<TcpSender::SegmentOut> sent;
  std::vector<TimePoint> sent_at;
  std::unique_ptr<TcpSender> sender;

  explicit Harness(SenderConfig cfg) {
    sender = std::make_unique<TcpSender>(
        sim, cfg, [this](const TcpSender::SegmentOut& s) {
          sent.push_back(s);
          sent_at.push_back(sim.now());
        });
    sender->start(kIsn);
    for (int i = 0; i < 20; ++i) sender->seed_rtt(Duration::millis(100));
  }

  void ack(net::Seq32 a, std::vector<net::SackBlock> sacks = {},
           std::optional<net::SackBlock> dsack = std::nullopt) {
    sender->on_ack(a, 1 << 20, sacks, dsack);
  }
  void advance(Duration d) { sim.run_until(sim.now() + d); }
  net::Seq32 seg(int i) const {
    return kIsn + static_cast<std::uint32_t>(i) * kMss;
  }
};

SenderConfig base_config() {
  SenderConfig cfg;
  cfg.mss = kMss;
  cfg.init_cwnd = 4;
  cfg.cc = CcAlgo::kReno;
  return cfg;
}

// ---- Pacing ----

TEST(Pacing, SpacesTransmissionsAcrossTheRtt) {
  SenderConfig cfg = base_config();
  cfg.pacing = true;
  Harness h(cfg);
  h.sender->app_write(4 * kMss);
  // Only the first segment goes out instantly.
  EXPECT_EQ(h.sent.size(), 1u);
  h.advance(Duration::millis(200));
  EXPECT_EQ(h.sent.size(), 4u);
  // Consecutive gaps ~ SRTT / cwnd = 25 ms.
  for (std::size_t i = 1; i < h.sent_at.size(); ++i) {
    const Duration gap = h.sent_at[i] - h.sent_at[i - 1];
    EXPECT_GE(gap, Duration::millis(20));
    EXPECT_LE(gap, Duration::millis(35));
  }
}

TEST(Pacing, DisabledSendsFullBurst) {
  Harness h(base_config());
  h.sender->app_write(4 * kMss);
  EXPECT_EQ(h.sent.size(), 4u);
  EXPECT_EQ(h.sent_at.front(), h.sent_at.back());
}

TEST(Pacing, RetransmissionsAreNotPaced) {
  SenderConfig cfg = base_config();
  cfg.pacing = true;
  Harness h(cfg);
  h.sender->app_write(4 * kMss);
  h.advance(Duration::millis(250));
  ASSERT_EQ(h.sent.size(), 4u);
  // RTO fires: the head retransmission goes out immediately with the timer.
  h.advance(Duration::millis(400));
  ASSERT_GE(h.sent.size(), 5u);
  EXPECT_TRUE(h.sent[4].retransmission);
}

TEST(Pacing, ReducesQueueDropsAtBottleneck) {
  // A shallow drop-tail queue: a bursty sender overflows it, a paced one
  // does not. This is the §4.3 continuous-loss mitigation in action.
  auto run = [](bool pacing) {
    sim::Simulator sim;
    sim::LinkConfig down_cfg;
    down_cfg.prop_delay = Duration::millis(50);
    down_cfg.bandwidth_Bps = 2'000'000;
    down_cfg.queue_packets = 8;  // shallow
    sim::LinkConfig up_cfg;
    up_cfg.prop_delay = Duration::millis(50);
    sim::Link down(sim, down_cfg, Rng(1));
    sim::Link up(sim, up_cfg, Rng(2));
    ConnectionConfig cfg;
    cfg.client_to_server = {net::ipv4_from_string("10.0.0.1"),
                            net::ipv4_from_string("192.168.1.1"), 40001, 80};
    cfg.sender.pacing = pacing;
    RequestSpec req;
    req.response_bytes = 400'000;
    cfg.requests.push_back(req);
    Connection conn(sim, down, up, cfg, nullptr);
    conn.start();
    sim.run_until(sim.now() + Duration::seconds(300.0));
    EXPECT_TRUE(conn.done());
    return down.stats().dropped_queue;
  };
  const auto bursty_drops = run(false);
  const auto paced_drops = run(true);
  EXPECT_LT(paced_drops, bursty_drops);
}

TEST(Pacing, CwndStillGrowsWhilePaced) {
  SenderConfig cfg = base_config();
  cfg.pacing = true;
  Harness h(cfg);
  h.sender->app_write(60 * kMss);
  h.advance(Duration::millis(100));
  const auto before = h.sender->cwnd();
  h.ack(h.seg(2));
  h.ack(h.seg(4));
  EXPECT_GT(h.sender->cwnd(), before);
}

// ---- Spurious RTO ----

TEST(SpuriousRto, DsackKeepsCollapse) {
  // 2.6.32 has no F-RTO undo: a DSACK for the timeout retransmission does
  // not restore the window, and the sender stays in Loss.
  Harness h(base_config());
  h.sender->app_write(20 * kMss);
  h.advance(Duration::millis(100));
  h.ack(h.seg(4));
  h.advance(Duration::millis(500));
  ASSERT_GE(h.sender->stats().rto_fires, 1u);
  h.sender->on_ack(h.seg(6), 1 << 20, {}, net::SackBlock{h.seg(4), h.seg(5)});
  EXPECT_NE(h.sender->state(), CaState::kOpen);
}

// ---- Adaptive S-RTO ----

SenderConfig adaptive_srto_config() {
  SenderConfig cfg = base_config();
  cfg.recovery = RecoveryMechanism::kSrto;
  cfg.srto.t1 = 10;
  cfg.srto.adaptive = true;
  return cfg;
}

TEST(AdaptiveSrto, SpuriousProbeStretchesTimer) {
  Harness h(adaptive_srto_config());
  // SRTT = 90 ms keeps the stretched probe (3*SRTT = 270 ms) below the
  // RTO (SRTT + 200 ms floor = 290 ms).
  for (int i = 0; i < 40; ++i) h.sender->seed_rtt(Duration::millis(90));
  h.sender->app_write(2 * kMss);
  // Probe fires at 2*SRTT = 180 ms and retransmits the head (segment 0).
  h.advance(Duration::millis(195));
  ASSERT_EQ(h.sender->stats().srto_probes, 1u);
  // The probe was unnecessary: DSACK for the probed head. Acking only the
  // retransmitted segment keeps Karn's rule from feeding new RTT samples,
  // so the timings below stay exact.
  h.sender->on_ack(h.seg(1), 1 << 20, {}, net::SackBlock{h.seg(0), h.seg(1)});
  EXPECT_EQ(h.sender->stats().srto_spurious_probes, 1u);
  // Segment 1 is still outstanding; the rearmed probe now waits
  // 2*1.5 = 3*SRTT = 270 ms instead of 180 ms.
  h.advance(Duration::millis(240));
  EXPECT_EQ(h.sender->stats().srto_probes, 1u);  // not yet
  h.advance(Duration::millis(50));
  EXPECT_EQ(h.sender->stats().srto_probes, 2u);  // fired at ~270 ms
}

TEST(AdaptiveSrto, UsefulProbeRelaxesTimer) {
  Harness h(adaptive_srto_config());
  for (int i = 0; i < 40; ++i) h.sender->seed_rtt(Duration::millis(90));
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(195));  // probe 1 (segment 0)
  ASSERT_EQ(h.sender->stats().srto_probes, 1u);
  // Spurious verdict -> level 1. Segment 1 stays outstanding.
  h.sender->on_ack(h.seg(1), 1 << 20, {}, net::SackBlock{h.seg(0), h.seg(1)});
  // Probe 2 fires stretched (3*SRTT = 270 ms) and retransmits segment 1 —
  // this time it repaired a real loss: plain cumulative ACK, no DSACK.
  h.advance(Duration::millis(290));
  ASSERT_EQ(h.sender->stats().srto_probes, 2u);
  h.ack(h.seg(2));  // covers only the retransmitted segment: no RTT sample
  EXPECT_EQ(h.sender->stats().srto_spurious_probes, 1u);
  // Level back to 0: the next probe fires at the base 2*SRTT = 180 ms.
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(195));
  EXPECT_EQ(h.sender->stats().srto_probes, 3u);
}

TEST(AdaptiveSrto, BackoffLevelCapped) {
  Harness h(adaptive_srto_config());
  // SRTT ~30 ms: the base probe waits 2*SRTT, and each level adds
  // kSrtoBackoffStep of it. Even an uncapped fifth level (7*SRTT) would
  // stay below the RTO (SRTT + 200 ms floor), so only the cap stops the
  // stretch.
  for (int i = 0; i < 40; ++i) h.sender->seed_rtt(Duration::millis(30));
  const Duration srtt = h.sender->rto_estimator().srtt();
  h.sender->app_write(9 * kMss);
  for (int i = 0; i < 7; ++i) {
    SCOPED_TRACE(i);
    const TimePoint armed = h.sim.now();
    const auto before = h.sender->stats().srto_probes;
    while (h.sender->stats().srto_probes == before) {
      h.advance(Duration::millis(1));
    }
    const int level = std::min(i, kSrtoMaxBackoffLevel);
    const Duration want = srtt * (2.0 * (1.0 + kSrtoBackoffStep * level));
    EXPECT_GE(h.sim.now() - armed, want);
    EXPECT_LT(h.sim.now() - armed, want + Duration::millis(1));
    // The probed head arrived after all: acking just that segment with a
    // DSACK marks the probe spurious without an RTT sample (Karn's rule).
    h.sender->on_ack(h.seg(i + 1), 1 << 20, {},
                     net::SackBlock{h.seg(i), h.seg(i + 1)});
    ASSERT_EQ(h.sender->stats().srto_spurious_probes,
              static_cast<std::uint64_t>(i + 1));
    ASSERT_EQ(h.sender->rto_estimator().srtt(), srtt);
  }
}

TEST(AdaptiveSrto, NonAdaptiveIgnoresVerdicts) {
  SenderConfig cfg = adaptive_srto_config();
  cfg.srto.adaptive = false;
  Harness h(cfg);
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(220));
  ASSERT_EQ(h.sender->stats().srto_probes, 1u);
  h.sender->on_ack(h.seg(2), 1 << 20, {}, net::SackBlock{h.seg(0), h.seg(1)});
  EXPECT_EQ(h.sender->stats().srto_spurious_probes, 0u);
  // Timer unchanged: next probe at the base 200 ms.
  h.sender->app_write(2 * kMss);
  h.advance(Duration::millis(230));
  EXPECT_EQ(h.sender->stats().srto_probes, 2u);
}

}  // namespace
}  // namespace tapo::tcp
