// Tests for the client-side receiver: delayed ACKs, SACK/DSACK generation,
// window management, SWS avoidance, autotuning, and the slow-reader model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "tcp/receiver.h"

namespace tapo::tcp {
namespace {

constexpr std::uint32_t kMss = 1000;
constexpr net::Seq32 kIsn{100};

ReceiverConfig test_config() {
  ReceiverConfig cfg;
  cfg.mss = kMss;
  cfg.init_rwnd_bytes = 10 * kMss;
  cfg.max_rwnd_bytes = 40 * kMss;
  cfg.window_autotune = false;
  cfg.delack_timeout = Duration::millis(40);
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  std::vector<TcpReceiver::AckSpec> acks;
  std::unique_ptr<TcpReceiver> rcv;

  explicit Harness(ReceiverConfig cfg = test_config()) {
    rcv = std::make_unique<TcpReceiver>(
        sim, cfg, [this](const TcpReceiver::AckSpec& a) { acks.push_back(a); });
    rcv->start(kIsn);
  }

  net::Seq32 seg(int i) const {
    return kIsn + static_cast<std::uint32_t>(i) * kMss;
  }
  void data(int i) { rcv->on_data(seg(i), kMss); }
  void advance(Duration d) { sim.run_until(sim.now() + d); }
};

TEST(Receiver, AcksEverySecondSegment) {
  Harness h;
  h.data(0);
  EXPECT_TRUE(h.acks.empty());  // delack armed
  h.data(1);
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_EQ(h.acks[0].ack, h.seg(2));
  EXPECT_TRUE(h.acks[0].sack_blocks.empty());
}

TEST(Receiver, DelayedAckTimerFires) {
  Harness h;
  h.data(0);
  h.advance(Duration::millis(39));
  EXPECT_TRUE(h.acks.empty());
  h.advance(Duration::millis(2));
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_EQ(h.acks[0].ack, h.seg(1));
}

TEST(Receiver, OutOfOrderTriggersImmediateSack) {
  Harness h;
  h.data(0);
  h.data(2);  // hole at segment 1
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_EQ(h.acks[0].ack, h.seg(1));  // cumulative stays at the hole
  ASSERT_EQ(h.acks[0].sack_blocks.size(), 1u);
  EXPECT_EQ(h.acks[0].sack_blocks[0], (net::SackBlock{h.seg(2), h.seg(3)}));
}

TEST(Receiver, HoleFillAcksImmediately) {
  Harness h;
  h.data(0);
  h.data(2);
  h.data(1);  // fills the hole
  ASSERT_EQ(h.acks.size(), 2u);
  EXPECT_EQ(h.acks[1].ack, h.seg(3));
  EXPECT_TRUE(h.acks[1].sack_blocks.empty());
}

TEST(Receiver, MultipleSackBlocksMostRecentFirst) {
  Harness h;
  h.data(0);
  h.data(2);  // hole 1
  h.data(4);  // hole 3
  ASSERT_EQ(h.acks.size(), 2u);
  const auto& blocks = h.acks[1].sack_blocks;
  ASSERT_EQ(blocks.size(), 2u);
  // The block containing the newest data (segment 4) is reported first.
  EXPECT_EQ(blocks[0], (net::SackBlock{h.seg(4), h.seg(5)}));
  EXPECT_EQ(blocks[1], (net::SackBlock{h.seg(2), h.seg(3)}));
}

TEST(Receiver, OooBlocksMerge) {
  Harness h;
  h.data(2);
  h.data(3);  // adjacent: merges into one block
  ASSERT_EQ(h.acks.size(), 2u);
  ASSERT_EQ(h.acks[1].sack_blocks.size(), 1u);
  EXPECT_EQ(h.acks[1].sack_blocks[0], (net::SackBlock{h.seg(2), h.seg(4)}));
}

TEST(Receiver, DsackOnFullyDuplicateSegment) {
  Harness h;
  h.data(0);
  h.data(1);
  h.data(0);  // duplicate below rcv_nxt
  ASSERT_EQ(h.acks.size(), 2u);
  const auto& a = h.acks[1];
  EXPECT_EQ(a.ack, h.seg(2));
  ASSERT_GE(a.sack_blocks.size(), 1u);
  EXPECT_EQ(a.sack_blocks[0], (net::SackBlock{h.seg(0), h.seg(1)}));
  EXPECT_EQ(h.rcv->dsacks_sent(), 1u);
}

TEST(Receiver, DsackOnDuplicateOooSegment) {
  Harness h;
  h.data(0);
  h.data(2);
  h.data(2);  // duplicate of the sacked block
  ASSERT_EQ(h.acks.size(), 2u);
  EXPECT_EQ(h.acks[1].sack_blocks[0], (net::SackBlock{h.seg(2), h.seg(3)}));
  EXPECT_EQ(h.rcv->dsacks_sent(), 1u);
}

TEST(Receiver, WindowShrinksWithUnreadData) {
  auto cfg = test_config();
  cfg.app_read_Bps = 1;  // effectively frozen reader
  Harness h(cfg);
  h.data(0);
  h.data(1);
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_LE(h.acks[0].rwnd_bytes, 10 * kMss - 2 * kMss);
}

TEST(Receiver, InstantReaderKeepsWindowOpen) {
  Harness h;  // app_read_Bps = 0 -> instant
  for (int i = 0; i < 8; ++i) h.data(i);
  ASSERT_FALSE(h.acks.empty());
  EXPECT_EQ(h.acks.back().rwnd_bytes, 10 * kMss);
}

TEST(Receiver, SwsAvoidanceAdvertisesZero) {
  auto cfg = test_config();
  cfg.init_rwnd_bytes = 2 * kMss;
  cfg.max_rwnd_bytes = 2 * kMss;
  cfg.app_read_Bps = 1;  // frozen reader
  Harness h(cfg);
  h.data(0);
  h.data(1);  // buffer now full
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_EQ(h.acks[0].rwnd_bytes, 0u);
  EXPECT_GE(h.rcv->zero_window_acks(), 1u);
}

TEST(Receiver, WindowUpdateAfterReaderDrains) {
  auto cfg = test_config();
  cfg.init_rwnd_bytes = 2 * kMss;
  cfg.max_rwnd_bytes = 2 * kMss;
  cfg.app_read_Bps = 100'000;  // drains 2 MSS in 20 ms
  Harness h(cfg);
  h.data(0);
  h.data(1);
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_EQ(h.acks[0].rwnd_bytes, 0u);
  h.advance(Duration::millis(100));
  // A window-update ACK re-opened the window.
  ASSERT_GE(h.acks.size(), 2u);
  EXPECT_GT(h.acks.back().rwnd_bytes, 0u);
}

TEST(Receiver, AutotuneGrowsBuffer) {
  auto cfg = test_config();
  cfg.window_autotune = true;
  cfg.init_rwnd_bytes = 4 * kMss;
  cfg.max_rwnd_bytes = 64 * kMss;
  Harness h(cfg);
  const std::uint32_t before = h.rcv->buffer_capacity();
  for (int i = 0; i < 30; ++i) h.data(i);
  EXPECT_GT(h.rcv->buffer_capacity(), before);
  EXPECT_LE(h.rcv->buffer_capacity(), 64 * kMss);
}

TEST(Receiver, PauseFreezesReading) {
  auto cfg = test_config();
  cfg.init_rwnd_bytes = 4 * kMss;
  cfg.max_rwnd_bytes = 4 * kMss;
  cfg.app_read_Bps = 1'000'000;         // fast when not paused
  cfg.pause_every_bytes = 2 * kMss;     // pause after 2 segments
  cfg.pause_duration = Duration::millis(500);
  Harness h(cfg);
  for (int i = 0; i < 4; ++i) {
    h.data(i);
    h.advance(Duration::millis(5));
  }
  // Reader paused after ~2 MSS; remaining data sits in the buffer.
  EXPECT_LT(h.acks.back().rwnd_bytes, 4 * kMss);
  // After the pause it drains again.
  h.advance(Duration::seconds(1.0));
  EXPECT_EQ(h.rcv->current_rwnd(), 4 * kMss);
}

TEST(Receiver, FinAdvancesRcvNxt) {
  Harness h;
  h.data(0);
  h.rcv->on_fin(h.seg(1));
  ASSERT_FALSE(h.acks.empty());
  EXPECT_EQ(h.acks.back().ack, h.seg(1) + 1);
}

TEST(Receiver, FinWithHolesNotAcceptedEarly) {
  Harness h;
  h.data(0);
  h.data(2);
  h.rcv->on_fin(h.seg(3));  // FIN beyond the hole
  // ACK still points at the hole.
  EXPECT_EQ(h.acks.back().ack, h.seg(1));
}

TEST(Receiver, DelackCancelledBySecondSegment) {
  Harness h;
  h.data(0);
  h.data(1);  // immediate ack, delack cancelled
  h.advance(Duration::millis(100));
  EXPECT_EQ(h.acks.size(), 1u);  // no duplicate delack firing
}

}  // namespace
}  // namespace tapo::tcp
