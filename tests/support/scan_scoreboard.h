#pragma once
// Scan-based reference for tcp::Scoreboard: the same operations, each
// answered by walking the whole window, with no cursor or cached value.
// The scoreboard model test runs both on the same random operation
// sequences and compares them after every step.
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "tcp/scoreboard.h"

namespace tapo::test {

using tcp::SegmentState;
using net::Seq32;

class ScanScoreboard {
 public:
  void on_transmit(Seq32 start, Seq32 end, TimePoint now) {
    SegmentState seg;
    seg.start = start;
    seg.end = end;
    seg.first_sent = now;
    seg.last_sent = now;
    segs_.push_back(seg);
    next_start_ = end;
  }

  void on_retransmit(Seq32 seq, TimePoint now, bool rto) {
    SegmentState* s = find_mut(seq);
    if (s == nullptr) return;
    if (s->retrans < 255) ++s->retrans;
    if (!s->retrans_pending) {
      s->retrans_pending = true;
      ++retrans_out_;
    }
    s->last_sent = now;
    if (rto) s->rto_retransmitted = true;
  }

  std::vector<SegmentState> ack_to(Seq32 ack) {
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

  std::uint32_t apply_sack(std::span<const net::SackBlock> blocks,
                           Seq32 snd_una,
                           std::vector<SegmentState>* newly_sacked) {
    std::uint32_t newly = 0;
    for (const auto& b : blocks) {
      if (net::at_or_before(b.end, snd_una)) continue;
      for (auto& s : segs_) {
        if (!s.sacked && net::at_or_after(s.start, b.start) &&
            net::at_or_before(s.end, b.end)) {
          newly_sacked->push_back(s);
          set_sacked(s);
          ++newly;
        }
      }
    }
    return newly;
  }

  std::uint32_t mark_lost_by_sack(std::uint32_t dupthres) {
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

  bool mark_head_lost() {
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

  void mark_all_lost() {
    for (auto& s : segs_) {
      if (!s.sacked) set_lost(s);
    }
  }

  void clear_lost_marks() {
    for (auto& s : segs_) s.lost = false;
    lost_out_ = 0;
  }

  std::uint32_t packets_out() const { return static_cast<std::uint32_t>(segs_.size()); }
  std::uint32_t sacked_out() const { return sacked_out_; }
  std::uint32_t lost_out() const { return lost_out_; }
  std::uint32_t retrans_out() const { return retrans_out_; }
  std::uint32_t in_flight() const {
    const std::uint32_t out = packets_out() + retrans_out_;
    const std::uint32_t gone = sacked_out_ + lost_out_;
    return out > gone ? out - gone : 0;
  }

  const SegmentState* first_unsacked() const {
    for (const auto& s : segs_) {
      if (!s.sacked) return &s;
    }
    return nullptr;
  }
  const SegmentState* last_unsacked() const {
    for (auto it = segs_.rbegin(); it != segs_.rend(); ++it) {
      if (!it->sacked) return &*it;
    }
    return nullptr;
  }

  Seq32 snd_una() const { return segs_.empty() ? next_start_ : segs_.front().start; }
  Seq32 snd_nxt() const { return next_start_; }

  std::optional<Seq32> next_lost_to_retransmit() const {
    for (const auto& s : segs_) {
      if (s.lost && !s.retrans_pending && !s.sacked) return s.start;
    }
    return std::nullopt;
  }

  const SegmentState* find(Seq32 seq) const {
    return const_cast<ScanScoreboard*>(this)->find_mut(seq);
  }
  const std::deque<SegmentState>& segments() const { return segs_; }

 private:
  SegmentState* find_mut(Seq32 seq) {
    for (auto& s : segs_) {
      if (net::seq_in_range(seq, s.start, s.end)) return &s;
    }
    return nullptr;
  }

  void set_sacked(SegmentState& s) {
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

  void set_lost(SegmentState& s) {
    if (!s.lost) {
      s.lost = true;
      ++lost_out_;
    }
    clear_retrans_pending(s);
  }

  void clear_retrans_pending(SegmentState& s) {
    if (s.retrans_pending) {
      s.retrans_pending = false;
      --retrans_out_;
    }
  }

  std::deque<SegmentState> segs_;
  Seq32 next_start_;
  std::uint32_t sacked_out_ = 0;
  std::uint32_t lost_out_ = 0;
  std::uint32_t retrans_out_ = 0;
};

}  // namespace tapo::test
