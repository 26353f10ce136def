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
}

SegmentState* Scoreboard::find_mut(Seq32 seq) {
  for (auto& s : segs_) {
    if (net::seq_in_range(seq, s.start, s.end)) return &s;
  }
  return nullptr;
}

const SegmentState* Scoreboard::find(Seq32 seq) const {
  return const_cast<Scoreboard*>(this)->find_mut(seq);
}

void Scoreboard::set_sacked(SegmentState& s) {
  if (!s.sacked) {
    s.sacked = true;
    ++sacked_out_;
  }
  if (s.lost) {
    s.lost = false;
    --lost_out_;
  }
  clear_retrans_pending(s);
}

void Scoreboard::set_lost(SegmentState& s) {
  if (!s.lost) {
    s.lost = true;
    ++lost_out_;
  }
  clear_retrans_pending(s);
}

void Scoreboard::clear_retrans_pending(SegmentState& s) {
  if (s.retrans_pending) {
    s.retrans_pending = false;
    --retrans_out_;
  }
}

void Scoreboard::on_retransmit(Seq32 seq, TimePoint now, bool rto) {
  SegmentState* s = find_mut(seq);
  if (s == nullptr) return;
  if (s->retrans < 255) ++s->retrans;
  if (!s->retrans_pending) {
    s->retrans_pending = true;
    ++retrans_out_;
  }
  s->last_sent = now;
  if (rto) {
    s->rto_retransmitted = true;
  } else {
    s->fast_retransmitted = true;
  }
}

std::vector<SegmentState> Scoreboard::ack_to(Seq32 ack) {
  std::vector<SegmentState> acked;
  while (!segs_.empty() && net::at_or_before(segs_.front().end, ack)) {
    const SegmentState& s = segs_.front();
    if (s.sacked) --sacked_out_;
    if (s.lost) --lost_out_;
    if (s.retrans_pending) --retrans_out_;
    acked.push_back(s);
    segs_.pop_front();
  }
  return acked;
}

std::uint32_t Scoreboard::apply_sack(std::span<const net::SackBlock> blocks,
                                     Seq32 snd_una,
                                     std::vector<SegmentState>* newly_sacked) {
  std::uint32_t newly = 0;
  for (const auto& b : blocks) {
    if (net::at_or_before(b.end, snd_una)) continue;  // DSACK for acked data
    for (auto& s : segs_) {
      if (!s.sacked && net::at_or_after(s.start, b.start) &&
          net::at_or_before(s.end, b.end)) {
        if (newly_sacked != nullptr) newly_sacked->push_back(s);
        // A SACK for this segment supersedes any loss/retrans bookkeeping.
        set_sacked(s);
        ++newly;
      }
    }
  }
  return newly;
}

std::uint32_t Scoreboard::mark_lost_by_sack(std::uint32_t dupthres) {
  // Count SACKed segments above each position (scan from the back).
  std::uint32_t newly = 0;
  std::uint32_t sacked_above = 0;
  for (auto it = segs_.rbegin(); it != segs_.rend(); ++it) {
    if (it->sacked) {
      ++sacked_above;
      continue;
    }
    if (!it->lost && sacked_above >= dupthres) {
      set_lost(*it);
      ++newly;
    }
  }
  return newly;
}

Seq32 Scoreboard::highest_sacked() const {
  for (auto it = segs_.rbegin(); it != segs_.rend(); ++it) {
    if (it->sacked) return it->end;
  }
  return snd_una();
}

std::uint32_t Scoreboard::mark_lost_by_fack(std::uint32_t dupthres,
                                            std::uint32_t mss) {
  const Seq32 fack = highest_sacked();
  const std::uint64_t margin = static_cast<std::uint64_t>(dupthres) * mss;
  std::uint32_t newly = 0;
  for (auto& s : segs_) {
    if (s.sacked || s.lost) continue;
    if (net::at_or_after(s.end, fack)) break;  // nothing SACKed beyond here
    if (net::distance(s.end, fack) >= margin) {
      set_lost(s);
      ++newly;
    }
  }
  return newly;
}

bool Scoreboard::mark_head_lost() {
  for (auto& s : segs_) {
    if (s.sacked) continue;
    if (!s.lost) {
      set_lost(s);
      return true;
    }
    return false;
  }
  return false;
}

void Scoreboard::mark_all_lost() {
  for (auto& s : segs_) {
    if (!s.sacked) set_lost(s);
  }
}

void Scoreboard::clear_lost_marks() {
  for (auto& s : segs_) s.lost = false;
  lost_out_ = 0;
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

std::optional<Seq32> Scoreboard::next_lost_to_retransmit() const {
  for (const auto& s : segs_) {
    if (s.lost && !s.retrans_pending && !s.sacked) return s.start;
  }
  return std::nullopt;
}

}  // namespace tapo::tcp
