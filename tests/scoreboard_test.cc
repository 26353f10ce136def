// Tests for the sender scoreboard (SACK bookkeeping, Eq.-1 counters).
#include <gtest/gtest.h>

#include <vector>

#include "tcp/scoreboard.h"

namespace tapo::tcp {
namespace {

constexpr std::uint32_t kMss = 1000;

// Shorthand: tests build sequence positions from small raw integers.
constexpr Seq32 S(std::uint32_t v) { return Seq32{v}; }

Scoreboard make_board(int segments, TimePoint t = TimePoint::epoch()) {
  Scoreboard b;
  for (int i = 0; i < segments; ++i) {
    const auto s = static_cast<std::uint32_t>(1 + i * kMss);
    b.on_transmit(S(s), S(s + kMss), t);
  }
  return b;
}

TEST(Scoreboard, TransmitTracksCounters) {
  auto b = make_board(5);
  EXPECT_EQ(b.packets_out(), 5u);
  EXPECT_EQ(b.in_flight(), 5u);
  EXPECT_EQ(b.snd_una(), S(1));
  EXPECT_EQ(b.snd_nxt(), S(1 + 5 * kMss));
  EXPECT_EQ(b.sacked_out(), 0u);
  EXPECT_EQ(b.lost_out(), 0u);
}

TEST(Scoreboard, AckToPopsFullyAcked) {
  auto b = make_board(5);
  std::vector<Seq32> acked;
  const std::uint32_t n = b.ack_to(
      S(1 + 2 * kMss), [&](const SegmentState& s) { acked.push_back(s.start); });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(acked, (std::vector<Seq32>{S(1), S(1 + kMss)}));
  EXPECT_EQ(b.packets_out(), 3u);
  EXPECT_EQ(b.snd_una(), S(1 + 2 * kMss));
}

TEST(Scoreboard, PartialAckKeepsSegment) {
  auto b = make_board(2);
  EXPECT_EQ(b.ack_to(S(1 + kMss / 2)), 0u);
  EXPECT_EQ(b.packets_out(), 2u);
}

TEST(Scoreboard, SackMarksSegments) {
  auto b = make_board(5);
  // SACK covering segments 3 and 4 (0-indexed 2,3).
  const std::uint32_t s3 = 1 + 2 * kMss;
  const auto n = b.apply_sack({{S(s3), S(s3 + 2 * kMss)}}, b.snd_una());
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(b.sacked_out(), 2u);
  EXPECT_EQ(b.in_flight(), 3u);
  // Re-applying the same SACK is idempotent.
  EXPECT_EQ(b.apply_sack({{S(s3), S(s3 + 2 * kMss)}}, b.snd_una()), 0u);
}

TEST(Scoreboard, SackBelowUnaIgnored) {
  auto b = make_board(5);
  b.ack_to(S(1 + 2 * kMss));
  EXPECT_EQ(b.apply_sack({{S(1), S(1 + kMss)}}, S(1 + 2 * kMss)), 0u);
}

TEST(Scoreboard, PartialSackBlockDoesNotMark) {
  auto b = make_board(2);
  // Block covers only half of segment 1.
  EXPECT_EQ(b.apply_sack({{S(1), S(1 + kMss / 2)}}, S(1)), 0u);
  EXPECT_EQ(b.sacked_out(), 0u);
}

TEST(Scoreboard, MarkLostBySackThreshold) {
  auto b = make_board(6);
  // SACK the last three segments: segments 1..3 have 3 SACKed above.
  const std::uint32_t s4 = 1 + 3 * kMss;
  b.apply_sack({{S(s4), S(s4 + 3 * kMss)}}, S(1));
  const auto newly = b.mark_lost_by_sack(3);
  EXPECT_EQ(newly, 3u);
  EXPECT_EQ(b.lost_out(), 3u);
  // in_flight = 6 + 0 - (3 + 3) = 0.
  EXPECT_EQ(b.in_flight(), 0u);
  // Idempotent.
  EXPECT_EQ(b.mark_lost_by_sack(3), 0u);
}

TEST(Scoreboard, MarkLostRespectsDupthres) {
  auto b = make_board(4);
  const std::uint32_t s3 = 1 + 2 * kMss;
  b.apply_sack({{S(s3), S(s3 + 2 * kMss)}}, S(1));  // two SACKed above
  EXPECT_EQ(b.mark_lost_by_sack(3), 0u);   // below threshold
  EXPECT_EQ(b.mark_lost_by_sack(2), 2u);   // threshold reached
}

TEST(Scoreboard, Holes) {
  auto b = make_board(5);
  const std::uint32_t s2 = 1 + kMss;
  const std::uint32_t s5 = 1 + 4 * kMss;
  b.apply_sack({{S(s2), S(s2 + kMss)}, {S(s5), S(s5 + kMss)}}, S(1));
  // Segments 1, 3, 4 are unSACKed; 1, 3, 4 all have a SACKed block above.
  EXPECT_EQ(b.sacked_out(), 2u);
  EXPECT_EQ(b.lost_out(), 0u);
  EXPECT_EQ(b.mark_lost_by_sack(1), 3u);  // marks every hole lost
  for (const std::uint32_t seg : {1u, 3u, 4u}) {
    EXPECT_TRUE(b.find(S(1 + (seg - 1) * kMss))->lost) << "segment " << seg;
  }
  EXPECT_FALSE(b.find(S(s2))->lost);
  EXPECT_FALSE(b.find(S(s5))->lost);
}

TEST(Scoreboard, RetransmitBookkeeping) {
  auto b = make_board(3, TimePoint::from_us(1000));
  b.on_retransmit(S(1), TimePoint::from_us(5000), /*rto=*/false);
  EXPECT_EQ(b.retrans_out(), 1u);
  const SegmentState* s = b.find(S(1));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->retrans, 1);
  EXPECT_FALSE(s->rto_retransmitted);
  EXPECT_EQ(s->last_sent, TimePoint::from_us(5000));
  EXPECT_EQ(s->first_sent, TimePoint::from_us(1000));

  b.on_retransmit(S(1), TimePoint::from_us(9000), /*rto=*/true);
  EXPECT_TRUE(b.find(S(1))->rto_retransmitted);
  EXPECT_EQ(b.find(S(1))->retrans, 2);
}

TEST(Scoreboard, InFlightEquationWithRetrans) {
  auto b = make_board(5);
  // Mark head lost and retransmit it.
  EXPECT_TRUE(b.mark_head_lost());
  EXPECT_EQ(b.lost_out(), 1u);
  // in_flight = 5 + 0 - (0 + 1) = 4.
  EXPECT_EQ(b.in_flight(), 4u);
  b.on_retransmit(S(1), TimePoint::epoch(), false);
  // in_flight = 5 + 1 - (0 + 1) = 5.
  EXPECT_EQ(b.in_flight(), 5u);
}

TEST(Scoreboard, SackClearsLostAndRetransPending) {
  auto b = make_board(3);
  b.mark_head_lost();
  b.on_retransmit(S(1), TimePoint::epoch(), false);
  b.apply_sack({{S(1), S(1 + kMss)}}, S(1));
  EXPECT_EQ(b.lost_out(), 0u);
  EXPECT_EQ(b.retrans_out(), 0u);
  EXPECT_EQ(b.sacked_out(), 1u);
}

TEST(Scoreboard, MarkAllLostSkipsSacked) {
  auto b = make_board(4);
  const std::uint32_t s2 = 1 + kMss;
  b.apply_sack({{S(s2), S(s2 + kMss)}}, S(1));
  b.mark_all_lost();
  EXPECT_EQ(b.lost_out(), 3u);
  EXPECT_EQ(b.sacked_out(), 1u);
}

TEST(Scoreboard, NextLostToRetransmitInOrder) {
  auto b = make_board(4);
  b.mark_all_lost();
  auto seq = b.next_lost_to_retransmit();
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, S(1));
  b.on_retransmit(*seq, TimePoint::epoch(), true);
  seq = b.next_lost_to_retransmit();
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, S(1 + kMss));
}

TEST(Scoreboard, MarkHeadLostSkipsSackedHead) {
  auto b = make_board(3);
  b.apply_sack({{S(1), S(1 + kMss)}}, S(1));
  EXPECT_TRUE(b.mark_head_lost());  // marks segment 2
  EXPECT_FALSE(b.find(S(1))->lost);
  EXPECT_TRUE(b.find(S(1 + kMss))->lost);
}

TEST(Scoreboard, ClearLostMarks) {
  auto b = make_board(3);
  b.mark_all_lost();
  b.clear_lost_marks();
  EXPECT_EQ(b.lost_out(), 0u);
}

TEST(Scoreboard, FindBoundaries) {
  auto b = make_board(2);
  EXPECT_EQ(b.find(S(0)), nullptr);
  EXPECT_NE(b.find(S(1)), nullptr);
  EXPECT_NE(b.find(S(kMss)), nullptr);       // last byte of segment 1
  EXPECT_EQ(b.find(S(1 + 2 * kMss)), nullptr);  // beyond snd_nxt
}

TEST(Scoreboard, NewlySackedOutParam) {
  auto b = make_board(3, TimePoint::from_us(777));
  std::vector<SegmentState> newly;
  const std::uint32_t s2 = 1 + kMss;
  const std::uint32_t n =
      b.apply_sack({{S(s2), S(s2 + kMss)}}, S(1),
                   [&](const SegmentState& s) { newly.push_back(s); });
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0].start, S(s2));
  EXPECT_EQ(newly[0].first_sent, TimePoint::from_us(777));
  EXPECT_FALSE(newly[0].sacked);  // snapshot taken before marking
}

}  // namespace
}  // namespace tapo::tcp
