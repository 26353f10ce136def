// Lockstep model test for tcp::Scoreboard: seeded random operation
// sequences run on the scoreboard and on a scan-based reference
// (support/scan_scoreboard.h), which are compared after every operation:
// return values, counters, every segment's state, and every query. Builds
// with NDEBUG compile the scoreboard's own recount out, so this is what
// checks its cursors and cached values there.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "support/scan_scoreboard.h"
#include "tcp/scoreboard.h"
#include "util/rng.h"

namespace tapo::tcp {
namespace {

using test::ScanScoreboard;

constexpr std::uint32_t kMss = 1000;
constexpr std::uint32_t kMaxWindow = 48;  // segments
constexpr int kSeeds = 300;
constexpr int kSteps = 500;

/// How often each edge case the model must reach came up, over all runs.
struct Coverage {
  int straddling_block = 0;      // a SACK block across snd_una
  int cut_segment = 0;           // a block edge inside a segment
  int duplicate_block = 0;       // the same block twice in one SACK
  int overlapping_blocks = 0;    // two blocks of one SACK overlap
  int mark_after_dupthres_rise = 0;
  int clear_mid_recovery = 0;    // clear_lost_marks with lost and SACKed
  int sack_after_mark_all = 0;   // a timeout-lost segment then SACKed
  int retransmitted_lost_sacked = 0;
  int crossed_wrap = 0;          // snd_nxt passed 2^32
};

std::string describe(const SegmentState& s) {
  std::ostringstream os;
  os << "[" << s.start.raw() << "," << s.end.raw() << ") retrans="
     << int{s.retrans} << " sacked=" << s.sacked << " lost=" << s.lost
     << " pending=" << s.retrans_pending << " rto=" << s.rto_retransmitted
     << " first=" << s.first_sent.us() << " last=" << s.last_sent.us();
  return os.str();
}

bool same(const SegmentState& a, const SegmentState& b) {
  return a.start == b.start && a.end == b.end && a.retrans == b.retrans &&
         a.sacked == b.sacked && a.lost == b.lost &&
         a.retrans_pending == b.retrans_pending &&
         a.rto_retransmitted == b.rto_retransmitted &&
         a.first_sent == b.first_sent && a.last_sent == b.last_sent;
}

std::optional<Seq32> start_of(const SegmentState* s) {
  return s == nullptr ? std::nullopt : std::optional<Seq32>(s->start);
}

class Lockstep {
 public:
  Lockstep(Seq32 isn, std::uint64_t seed, Coverage& cov)
      : rng_(seed), isn_(isn), una_(isn), cov_(cov) {}

  ::testing::AssertionResult step() {
    now_ = now_ + Duration::micros(rng_.uniform_int(0, 5000));
    // The first operation transmits the segment at the ISN.
    const std::int64_t op = started_ ? rng_.uniform_int(0, 99) : 0;
    std::ostringstream what;
    ::testing::AssertionResult r = ::testing::AssertionSuccess();
    if (op < 25) {
      r = transmit(what);
    } else if (op < 35) {
      r = ack(what);
    } else if (op < 58) {
      r = sack(what);
    } else if (op < 73) {
      r = mark_by_sack(what);
    } else if (op < 77) {
      what << "mark_head_lost";
      if (board_.mark_head_lost() != ref_.mark_head_lost()) {
        r = ::testing::AssertionFailure() << "return value";
      }
    } else if (op < 79) {
      what << "mark_all_lost";
      board_.mark_all_lost();
      ref_.mark_all_lost();
      timeout_lost_.clear();
      for (const auto& s : ref_.segments()) {
        if (s.lost) timeout_lost_.push_back(s.start);
      }
    } else if (op < 83) {
      what << "clear_lost_marks";
      if (ref_.lost_out() > 0 && ref_.sacked_out() > 0) ++cov_.clear_mid_recovery;
      board_.clear_lost_marks();
      ref_.clear_lost_marks();
    } else {
      r = retransmit(what);
    }
    if (!r) return r << " in " << what.str();
    r = compare();
    if (!r) return r << " after " << what.str();
    if (ref_.snd_nxt().raw() < isn_.raw() && !crossed_) {
      crossed_ = true;
      ++cov_.crossed_wrap;
    }
    return r;
  }

 private:
  /// A sequence position in or around the window: a segment edge, a byte
  /// inside one, or up to two segments beyond either end.
  Seq32 position() {
    const Seq32 lo = ref_.snd_una() - 2 * kMss;
    const std::uint32_t span = net::distance(lo, ref_.snd_nxt()) + 2 * kMss;
    Seq32 p = net::advance(lo, static_cast<std::uint64_t>(rng_.uniform_int(0, span)));
    if (rng_.chance(0.6)) {
      if (const SegmentState* s = ref_.find(p)) p = s->start;
    }
    return p;
  }

  ::testing::AssertionResult transmit(std::ostringstream& what) {
    if (ref_.packets_out() >= kMaxWindow) return ::testing::AssertionSuccess();
    const std::uint32_t len =
        rng_.chance(0.8) ? kMss : static_cast<std::uint32_t>(rng_.uniform_int(1, kMss));
    const Seq32 start = started_ ? ref_.snd_nxt() : isn_;
    started_ = true;
    what << "on_transmit " << start.raw() << "+" << len;
    board_.on_transmit(start, start + len, now_);
    ref_.on_transmit(start, start + len, now_);
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult ack(std::ostringstream& what) {
    const Seq32 a = position();
    what << "ack_to " << a.raw();
    std::vector<SegmentState> acked;
    const std::uint32_t n =
        board_.ack_to(a, [&](const SegmentState& s) { acked.push_back(s); });
    const std::vector<SegmentState> want = ref_.ack_to(a);
    if (n != want.size() || acked.size() != want.size()) {
      return ::testing::AssertionFailure()
             << "acked " << n << "/" << acked.size() << " want " << want.size();
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!same(acked[i], want[i])) {
        return ::testing::AssertionFailure() << "acked segment " << describe(acked[i])
                                             << " want " << describe(want[i]);
      }
    }
    // The sender's snd_una moves to the ACK even mid-segment.
    if (net::after(a, una_) && net::at_or_before(a, ref_.snd_nxt())) una_ = a;
    if (net::before(una_, ref_.snd_una())) una_ = ref_.snd_una();
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult sack(std::ostringstream& what) {
    std::vector<net::SackBlock> blocks;
    const auto n = rng_.uniform_int(1, 4);
    for (std::int64_t k = 0; k < n; ++k) {
      if (!blocks.empty() && rng_.chance(0.15)) {
        blocks.push_back(blocks[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(blocks.size()) - 1))]);
        continue;
      }
      const Seq32 start = position();
      Seq32 end = start + static_cast<std::uint32_t>(rng_.uniform_int(1, 6 * kMss));
      if (rng_.chance(0.6)) {
        if (const SegmentState* s = ref_.find(end - 1)) end = s->end;
      }
      blocks.push_back({start, end});
    }
    note_block_shapes(blocks);
    what << "apply_sack una=" << una_.raw();
    for (const auto& b : blocks) what << " [" << b.start.raw() << "," << b.end.raw() << ")";
    std::vector<SegmentState> newly;
    const std::uint32_t got = board_.apply_sack(
        blocks, una_, [&](const SegmentState& s) { newly.push_back(s); });
    std::vector<SegmentState> want_newly;
    const std::uint32_t want = ref_.apply_sack(blocks, una_, &want_newly);
    if (got != want || newly.size() != want_newly.size()) {
      return ::testing::AssertionFailure() << "newly " << got << "/" << newly.size()
                                           << " want " << want;
    }
    for (std::size_t i = 0; i < newly.size(); ++i) {
      if (!same(newly[i], want_newly[i])) {
        return ::testing::AssertionFailure() << "newly sacked " << describe(newly[i])
                                             << " want " << describe(want_newly[i]);
      }
      const SegmentState& s = want_newly[i];
      if (s.lost && s.retrans_pending) ++cov_.retransmitted_lost_sacked;
      for (const Seq32 t : timeout_lost_) {
        if (s.start == t && s.lost) ++cov_.sack_after_mark_all;
      }
    }
    return ::testing::AssertionSuccess();
  }

  void note_block_shapes(const std::vector<net::SackBlock>& blocks) {
    const Seq32 una = ref_.snd_una();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const auto& b = blocks[i];
      if (net::before(b.start, una) && net::after(b.end, una)) ++cov_.straddling_block;
      for (const Seq32 edge : {b.start, b.end}) {
        if (const SegmentState* s = ref_.find(edge); s != nullptr && !(s->start == edge)) {
          ++cov_.cut_segment;
        }
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (blocks[j] == b) {
          ++cov_.duplicate_block;
        } else if (net::before(blocks[j].start, b.end) &&
                   net::before(b.start, blocks[j].end)) {
          ++cov_.overlapping_blocks;
        }
      }
    }
  }

  ::testing::AssertionResult mark_by_sack(std::ostringstream& what) {
    // dupthres mostly rises, as the sender's does on DSACKs; a reset to
    // a low value starts a new rise.
    if (rng_.chance(0.2)) {
      if (dupthres_ < 10) ++dupthres_;
      rose_ = true;
    } else if (rng_.chance(0.05)) {
      dupthres_ = static_cast<std::uint32_t>(rng_.uniform_int(1, 3));
    }
    if (rose_ && ref_.lost_out() > 0) ++cov_.mark_after_dupthres_rise;
    rose_ = false;
    what << "mark_lost_by_sack " << dupthres_;
    const std::uint32_t got = board_.mark_lost_by_sack(dupthres_);
    const std::uint32_t want = ref_.mark_lost_by_sack(dupthres_);
    if (got != want) return ::testing::AssertionFailure() << got << " want " << want;
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult retransmit(std::ostringstream& what) {
    const auto next = ref_.next_lost_to_retransmit();
    const Seq32 seq = next && rng_.chance(0.7) ? *next : position();
    const bool rto = rng_.chance(0.3);
    what << "on_retransmit " << seq.raw() << (rto ? " rto" : "");
    const SegmentState* got = board_.on_retransmit(seq, now_, rto);
    ref_.on_retransmit(seq, now_, rto);
    const SegmentState* want = ref_.find(seq);
    if ((got == nullptr) != (want == nullptr) || (got != nullptr && !same(*got, *want))) {
      return ::testing::AssertionFailure() << "returned segment";
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult compare() {
    const auto& segs = ref_.segments();
    if (board_.packets_out() != ref_.packets_out() ||
        board_.sacked_out() != ref_.sacked_out() ||
        board_.lost_out() != ref_.lost_out() ||
        board_.retrans_out() != ref_.retrans_out() ||
        board_.in_flight() != ref_.in_flight() || board_.empty() != segs.empty() ||
        !(board_.snd_una() == ref_.snd_una()) || !(board_.snd_nxt() == ref_.snd_nxt())) {
      return ::testing::AssertionFailure()
             << "counters: out " << board_.packets_out() << "/" << ref_.packets_out()
             << " sacked " << board_.sacked_out() << "/" << ref_.sacked_out()
             << " lost " << board_.lost_out() << "/" << ref_.lost_out() << " retrans "
             << board_.retrans_out() << "/" << ref_.retrans_out();
    }
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (!same(board_.segments()[i], segs[i])) {
        return ::testing::AssertionFailure() << "segment " << i << ": "
                                             << describe(board_.segments()[i])
                                             << " want " << describe(segs[i]);
      }
    }
    if (start_of(board_.first_unsacked()) != start_of(ref_.first_unsacked()) ||
        start_of(board_.last_unsacked()) != start_of(ref_.last_unsacked())) {
      return ::testing::AssertionFailure() << "first/last unsacked";
    }
    // Sometimes skip the query, so the next-lost cursor also has to catch
    // up across several mutations.
    if (rng_.chance(0.6) &&
        board_.next_lost_to_retransmit() != ref_.next_lost_to_retransmit()) {
      return ::testing::AssertionFailure() << "next_lost_to_retransmit";
    }
    for (int k = 0; k < 3; ++k) {
      const Seq32 probe = position();
      if (start_of(board_.find(probe)) != start_of(ref_.find(probe))) {
        return ::testing::AssertionFailure() << "find(" << probe.raw() << ")";
      }
    }
    return ::testing::AssertionSuccess();
  }

  Rng rng_;
  Scoreboard board_;
  ScanScoreboard ref_;
  Seq32 isn_;
  Seq32 una_;  // the sender's snd_una: the highest ACK, even mid-segment
  TimePoint now_ = TimePoint::from_us(1'000'000);
  std::uint32_t dupthres_ = 3;
  bool rose_ = false;
  bool started_ = false;
  bool crossed_ = false;
  std::vector<Seq32> timeout_lost_;
  Coverage& cov_;
};

TEST(ScoreboardModel, MatchesScanReferenceStepByStep) {
  Coverage cov;
  for (int seed = 0; seed < kSeeds; ++seed) {
    // Every third run starts just below 2^32 and crosses the wrap.
    const Seq32 isn = seed % 3 == 0 ? Seq32{0xFFFFFFFFu - 7 * kMss + 123}
                                    : Seq32{static_cast<std::uint32_t>(1 + seed * 7919)};
    Lockstep run(isn, 0x5eed0000u + static_cast<std::uint64_t>(seed), cov);
    for (int i = 0; i < kSteps; ++i) {
      const auto r = run.step();
      ASSERT_TRUE(r) << "seed " << seed << " step " << i;
    }
  }
  EXPECT_GT(cov.straddling_block, 0);
  EXPECT_GT(cov.cut_segment, 0);
  EXPECT_GT(cov.duplicate_block, 0);
  EXPECT_GT(cov.overlapping_blocks, 0);
  EXPECT_GT(cov.mark_after_dupthres_rise, 0);
  EXPECT_GT(cov.clear_mid_recovery, 0);
  EXPECT_GT(cov.sack_after_mark_all, 0);
  EXPECT_GT(cov.retransmitted_lost_sacked, 0);
  EXPECT_GT(cov.crossed_wrap, 0);
}

}  // namespace
}  // namespace tapo::tcp
