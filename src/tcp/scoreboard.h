// Sender scoreboard: per-transmitted-segment state used for SACK-based loss
// detection and for the Table-2 counters the paper's analysis is built on
// (packets_out, sacked_out, lost_out, retrans_out, in_flight).
//
// Segments are MSS-sized except possibly the last one of a response, so the
// scoreboard is an ordered deque of contiguous ranges; fully acknowledged
// segments are popped from the front. All sequence positions are net::Seq32
// and every ordering decision goes through seq.h's wrap-safe helpers, so the
// scoreboard stays correct when a flow crosses the 2^32 wrap. The window
// spans far less than 2^31 bytes, so those helpers order it totally and a
// lookup or SACK block binary-searches it.
//
// No per-ACK operation scans the window (DESIGN.md §14, "Incremental
// scoreboard"): the Eq.-1 counters change with the flags they count, loss
// marking resumes from a cursor, and so does the search for the next
// segment to retransmit. Builds without NDEBUG recount all of that from
// scratch after every mutation.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>

#include "net/seq.h"
#include "net/tcp_header.h"
#include "util/time.h"

namespace tapo::tcp {

using net::Seq32;

struct SegmentState {
  Seq32 start;  // first sequence number
  Seq32 end;    // one past last
  std::uint8_t retrans = 0;           // times retransmitted
  bool sacked = false;
  bool lost = false;                  // marked lost (pending retransmit)
  bool retrans_pending = false;       // retransmitted, not yet acked/re-lost
  bool rto_retransmitted = false;     // ever retransmitted by the native RTO
  TimePoint first_sent;
  TimePoint last_sent;

  std::uint32_t len() const { return net::distance(start, end); }
  bool was_retransmitted() const { return retrans > 0; }
};

/// The default segment callback of ack_to and apply_sack: ignores it.
struct IgnoreSegment {
  void operator()(const SegmentState&) const {}
};

class Scoreboard {
 public:
  /// Records a newly transmitted segment [start, end). Must be contiguous
  /// with the previous segment (start == snd_nxt).
  void on_transmit(Seq32 start, Seq32 end, TimePoint now);

  /// Records a retransmission of the segment containing `seq` and returns
  /// that segment. `rto` marks a native timeout retransmission (vs fast
  /// retransmit / probe). Returns nullptr, changing nothing, if the segment
  /// is not tracked.
  const SegmentState* on_retransmit(Seq32 seq, TimePoint now, bool rto);

  /// Cumulative ACK up to `ack`: drops fully-acked segments, handing each
  /// to `on_acked` just before it goes (RTT sampling; Karn filtering by
  /// the caller). Returns how many were dropped.
  template <class OnAcked = IgnoreSegment>
  std::uint32_t ack_to(Seq32 ack, OnAcked&& on_acked = {});

  /// Applies SACK blocks; returns the number of newly SACKed segments and
  /// hands each to `on_newly_sacked` in its state before the update (for
  /// SACK-time RTT sampling). Blocks below snd_una (DSACK) are ignored here.
  template <class OnSacked = IgnoreSegment>
  std::uint32_t apply_sack(std::span<const net::SackBlock> blocks,
                           Seq32 snd_una, OnSacked&& on_newly_sacked = {});
  template <class OnSacked = IgnoreSegment>
  std::uint32_t apply_sack(std::initializer_list<net::SackBlock> blocks,
                           Seq32 snd_una, OnSacked&& on_newly_sacked = {}) {
    return apply_sack(std::span<const net::SackBlock>(blocks.begin(), blocks.size()),
                      snd_una, on_newly_sacked);
  }

  /// RFC 6675-style loss marking: an unSACKed segment is lost when at least
  /// `dupthres` SACKed segments lie above it. Returns newly marked count.
  std::uint32_t mark_lost_by_sack(std::uint32_t dupthres);

  /// Marks the head (first unSACKed) segment lost. Returns true if marked.
  bool mark_head_lost();

  /// Marks every unSACKed segment lost (RTO behaviour: "mark all
  /// outstanding packets as lost").
  void mark_all_lost();

  /// Clears the lost flag on every segment, leaving retrans_pending as it
  /// is, and rewinds the lost cursor to the head. The sender calls it
  /// whenever it leaves Recovery or Loss for Open.
  void clear_lost_marks();

  // -- Counters (all in segments, mirroring the kernel variables).
  // Maintained incrementally so every accessor is O(1): the sender queries
  // several per ACK, which would otherwise be quadratic per window. Loss
  // marking resumes from the lost cursor (lost_cursor_) and
  // next_lost_to_retransmit from the next-lost cursor (next_lost_). --
  std::uint32_t packets_out() const { return static_cast<std::uint32_t>(segs_.size()); }
  std::uint32_t sacked_out() const { return sacked_out_; }
  std::uint32_t lost_out() const { return lost_out_; }
  std::uint32_t retrans_out() const { return retrans_out_; }
  /// in_flight = packets_out + retrans_out - (sacked_out + lost_out)  (Eq. 1)
  std::uint32_t in_flight() const;

  /// First / last segment not yet SACKed, or nullptr. The head is both the
  /// RTO base and the S-RTO probe target; the tail is TLP's probe target.
  const SegmentState* first_unsacked() const;
  const SegmentState* last_unsacked() const;

  bool empty() const { return segs_.empty(); }
  Seq32 snd_una() const { return segs_.empty() ? next_start_ : segs_.front().start; }
  Seq32 snd_nxt() const { return next_start_; }

  /// First segment marked lost and not yet retransmitted since marking, or
  /// nullopt. ("Not yet" = lost && !currently counted in retrans_out.)
  /// Moves the next-lost cursor up to the segment it returns.
  std::optional<Seq32> next_lost_to_retransmit();

  const SegmentState* find(Seq32 seq) const;
  const SegmentState* head() const { return segs_.empty() ? nullptr : &segs_.front(); }
  const std::deque<SegmentState>& segments() const { return segs_; }

 private:
  /// Index of the segment containing `seq`, or segs_.size().
  std::size_t index_of(Seq32 seq) const;
  /// Index of the first segment starting at or after `seq`.
  std::size_t first_at_or_after(Seq32 seq) const;

  void pop_front();
  void set_sacked(std::size_t i);
  void set_lost(std::size_t i);
  void clear_retrans_pending(SegmentState& s);

#ifdef NDEBUG
  void check() const {}
#else
  /// From-scratch recount of every counter and cursor invariant.
  void check() const;
#endif

  std::deque<SegmentState> segs_;
  Seq32 next_start_;  // snd_nxt
  bool started_ = false;
  std::uint32_t sacked_out_ = 0;
  std::uint32_t lost_out_ = 0;
  std::uint32_t retrans_out_ = 0;
  // Lost cursor (index into segs_): every segment below it is SACKed or
  // lost, and every lost segment lies below it. sacked_from_cursor_ counts
  // the SACKed segments at or above it.
  std::size_t lost_cursor_ = 0;
  std::uint32_t sacked_from_cursor_ = 0;
  // Next-lost cursor (index into segs_, <= segs_.size()): no segment below
  // it is lost, unSACKed and out of retransmission. set_lost pulls it back;
  // next_lost_to_retransmit moves it forward.
  std::size_t next_lost_ = 0;
};

template <class OnAcked>
std::uint32_t Scoreboard::ack_to(Seq32 ack, OnAcked&& on_acked) {
  std::uint32_t acked = 0;
  for (; !segs_.empty() && net::at_or_before(segs_.front().end, ack); ++acked) {
    on_acked(std::as_const(segs_.front()));
    pop_front();
  }
  check();
  return acked;
}

template <class OnSacked>
std::uint32_t Scoreboard::apply_sack(std::span<const net::SackBlock> blocks,
                                     Seq32 snd_una, OnSacked&& on_newly_sacked) {
  std::uint32_t newly = 0;
  for (const auto& b : blocks) {
    if (net::at_or_before(b.end, snd_una)) continue;  // DSACK for acked data
    // The segments a block covers are the run from the first one starting
    // at or after its start up to the last one ending at or before its end.
    for (std::size_t i = first_at_or_after(b.start);
         i < segs_.size() && net::at_or_before(segs_[i].end, b.end); ++i) {
      if (segs_[i].sacked) continue;
      on_newly_sacked(std::as_const(segs_[i]));
      // A SACK for this segment supersedes any loss/retrans bookkeeping.
      set_sacked(i);
      ++newly;
    }
  }
  check();
  return newly;
}

}  // namespace tapo::tcp
