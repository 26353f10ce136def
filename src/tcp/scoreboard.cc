#include "tcp/scoreboard.h"

#include <algorithm>
#include <cassert>

namespace tapo::tcp {

void Scoreboard::on_transmit(Seq32 start, Seq32 end, TimePoint now) {
  assert(net::after(end, start));
  if (started_) {
    assert(start == next_start_ && "transmissions must be contiguous");
  } else {
    started_ = true;
  }
  SegmentState seg;
  seg.start = start;
  seg.end = end;
  seg.first_sent = now;
  seg.last_sent = now;
  segs_.push_back(seg);
  next_start_ = end;
  check();
}

std::size_t Scoreboard::index_of(Seq32 seq) const {
  // The last segment starting at or before seq is the only one that can
  // contain it.
  const auto it = std::partition_point(
      segs_.begin(), segs_.end(),
      [seq](const SegmentState& s) { return net::at_or_before(s.start, seq); });
  if (it == segs_.begin()) return segs_.size();
  const auto i = static_cast<std::size_t>(it - segs_.begin()) - 1;
  return net::seq_in_range(seq, segs_[i].start, segs_[i].end) ? i : segs_.size();
}

std::size_t Scoreboard::first_at_or_after(Seq32 seq) const {
  return static_cast<std::size_t>(
      std::partition_point(
          segs_.begin(), segs_.end(),
          [seq](const SegmentState& s) { return net::before(s.start, seq); }) -
      segs_.begin());
}

const SegmentState* Scoreboard::find(Seq32 seq) const {
  const std::size_t i = index_of(seq);
  return i < segs_.size() ? &segs_[i] : nullptr;
}

void Scoreboard::set_sacked(std::size_t i) {
  // Only unSACKed segments get here, and a SACK is never revoked: it ends
  // when its segment is popped.
  SegmentState& s = segs_[i];
  s.sacked = true;
  ++sacked_out_;
  if (i >= lost_cursor_) ++sacked_from_cursor_;
  if (s.lost) {
    s.lost = false;
    --lost_out_;
  }
  clear_retrans_pending(s);
}

void Scoreboard::set_lost(std::size_t i) {
  // Only unSACKed segments get here, and they leave lost and out of
  // retransmission: the next one to retransmit is at i at the latest.
  SegmentState& s = segs_[i];
  if (!s.lost) {
    s.lost = true;
    ++lost_out_;
  }
  clear_retrans_pending(s);
  next_lost_ = std::min(next_lost_, i);
}

void Scoreboard::clear_retrans_pending(SegmentState& s) {
  if (s.retrans_pending) {
    s.retrans_pending = false;
    --retrans_out_;
  }
}

void Scoreboard::pop_front() {
  const SegmentState& s = segs_.front();
  if (s.sacked) --sacked_out_;
  if (s.lost) --lost_out_;
  if (s.retrans_pending) --retrans_out_;
  if (lost_cursor_ > 0) {
    --lost_cursor_;
  } else if (s.sacked) {
    --sacked_from_cursor_;
  }
  if (next_lost_ > 0) --next_lost_;
  segs_.pop_front();
}

const SegmentState* Scoreboard::on_retransmit(Seq32 seq, TimePoint now, bool rto) {
  const std::size_t i = index_of(seq);
  if (i == segs_.size()) return nullptr;
  SegmentState& s = segs_[i];
  if (s.retrans < 255) ++s.retrans;
  if (!s.retrans_pending) {
    s.retrans_pending = true;
    ++retrans_out_;
  }
  s.last_sent = now;
  if (rto) s.rto_retransmitted = true;
  check();
  return &s;
}

std::uint32_t Scoreboard::mark_lost_by_sack(std::uint32_t dupthres) {
  // The segments with at least dupthres SACKed segments above them form a
  // window prefix. SACKs only lengthen it, and segments leave the window
  // only from the front. Every segment the cursor has passed stays SACKed
  // or lost until clear_lost_marks rewinds it, and none at or above it is
  // lost, so each segment is visited once. When dupthres rises the prefix
  // can end behind the cursor, which then waits.
  std::uint32_t newly = 0;
  for (; lost_cursor_ < segs_.size(); ++lost_cursor_) {
    const bool sacked = segs_[lost_cursor_].sacked;
    // The SACKed segments above this one: the tally, less itself.
    if (sacked_from_cursor_ - (sacked ? 1 : 0) < dupthres) break;
    if (sacked) {
      --sacked_from_cursor_;
    } else {
      set_lost(lost_cursor_);
      ++newly;
    }
  }
  check();
  return newly;
}

bool Scoreboard::mark_head_lost() {
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    if (segs_[i].sacked) continue;
    if (segs_[i].lost) return false;
    set_lost(i);
    // Everything below the head is SACKed, so the lost cursor may pass it.
    if (lost_cursor_ <= i) {
      sacked_from_cursor_ -= static_cast<std::uint32_t>(i - lost_cursor_);
      lost_cursor_ = i + 1;
    }
    check();
    return true;
  }
  return false;
}

void Scoreboard::mark_all_lost() {
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    if (!segs_[i].sacked) set_lost(i);
  }
  lost_cursor_ = segs_.size();
  sacked_from_cursor_ = 0;
  check();
}

void Scoreboard::clear_lost_marks() {
  for (auto& s : segs_) s.lost = false;
  lost_out_ = 0;
  lost_cursor_ = 0;
  sacked_from_cursor_ = sacked_out_;
  check();
}

const SegmentState* Scoreboard::first_unsacked() const {
  for (const auto& s : segs_) {
    if (!s.sacked) return &s;
  }
  return nullptr;
}

const SegmentState* Scoreboard::last_unsacked() const {
  for (auto it = segs_.rbegin(); it != segs_.rend(); ++it) {
    if (!it->sacked) return &*it;
  }
  return nullptr;
}

std::uint32_t Scoreboard::in_flight() const {
  const std::uint32_t out = packets_out() + retrans_out_;
  const std::uint32_t gone = sacked_out_ + lost_out_;
  return out > gone ? out - gone : 0;
}

std::optional<Seq32> Scoreboard::next_lost_to_retransmit() {
  // Every lost segment lies below the lost cursor.
  for (; next_lost_ < lost_cursor_; ++next_lost_) {
    const SegmentState& s = segs_[next_lost_];
    if (s.lost && !s.retrans_pending && !s.sacked) {
      check();
      return s.start;
    }
  }
  check();
  return std::nullopt;
}

#ifndef NDEBUG
void Scoreboard::check() const {
  std::uint32_t sacked = 0, lost = 0, retrans = 0, sacked_from_cursor = 0;
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const SegmentState& s = segs_[i];
    sacked += s.sacked ? 1 : 0;
    lost += s.lost ? 1 : 0;
    retrans += s.retrans_pending ? 1 : 0;
    if (i < lost_cursor_) {
      assert(s.sacked || s.lost);
    } else {
      sacked_from_cursor += s.sacked ? 1 : 0;
      assert(!s.lost);
    }
    if (i < next_lost_) assert(!s.lost || s.retrans_pending || s.sacked);
  }
  assert(lost_cursor_ <= segs_.size() && next_lost_ <= segs_.size());
  assert(sacked == sacked_out_);
  assert(lost == lost_out_);
  assert(retrans == retrans_out_);
  assert(sacked_from_cursor == sacked_from_cursor_);
}
#endif

}  // namespace tapo::tcp
