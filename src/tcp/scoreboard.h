// Sender scoreboard: per-transmitted-segment state used for SACK-based loss
// detection and for the Table-2 counters the paper's analysis is built on
// (packets_out, sacked_out, lost_out, retrans_out, in_flight).
//
// Segments are MSS-sized except possibly the last one of a response, so the
// scoreboard is an ordered deque of contiguous ranges; fully acknowledged
// segments are popped from the front. All sequence positions are net::Seq32
// and every ordering decision goes through seq.h's wrap-safe helpers, so the
// scoreboard stays correct when a flow crosses the 2^32 wrap.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

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
  bool fast_retransmitted = false;    // ever retransmitted by fast retransmit
  TimePoint first_sent;
  TimePoint last_sent;

  std::uint32_t len() const { return net::distance(start, end); }
  bool was_retransmitted() const { return retrans > 0; }
};

class Scoreboard {
 public:
  /// Records a newly transmitted segment [start, end). Must be contiguous
  /// with the previous segment (start == snd_nxt).
  void on_transmit(Seq32 start, Seq32 end, TimePoint now);

  /// Records a retransmission of the segment containing `seq`.
  /// `rto` marks a native timeout retransmission (vs fast retransmit /
  /// probe). No-op if the segment is not tracked.
  void on_retransmit(Seq32 seq, TimePoint now, bool rto);

  /// Cumulative ACK up to `ack`: drops fully-acked segments. Returns the
  /// acked segments' states for RTT sampling (Karn filtering by caller).
  std::vector<SegmentState> ack_to(Seq32 ack);

  /// Applies SACK blocks; returns the number of newly SACKed segments and
  /// optionally their pre-update states (for SACK-time RTT sampling).
  /// Blocks below snd_una (DSACK) are ignored here.
  std::uint32_t apply_sack(std::span<const net::SackBlock> blocks,
                           Seq32 snd_una,
                           std::vector<SegmentState>* newly_sacked = nullptr);
  std::uint32_t apply_sack(std::initializer_list<net::SackBlock> blocks,
                           Seq32 snd_una,
                           std::vector<SegmentState>* newly_sacked = nullptr) {
    return apply_sack(std::span<const net::SackBlock>(blocks.begin(), blocks.size()),
                      snd_una, newly_sacked);
  }

  /// RFC 6675-style loss marking: an unSACKed segment is lost when at least
  /// `dupthres` SACKed segments lie above it. Returns newly marked count.
  std::uint32_t mark_lost_by_sack(std::uint32_t dupthres);

  /// FACK-style loss marking (Mathis & Mahdavi): an unSACKed segment is
  /// lost when the forward-most SACKed byte is at least `dupthres` *
  /// `mss` bytes above its end — more aggressive than RFC 6675 under
  /// multiple losses in one window. Returns newly marked count.
  std::uint32_t mark_lost_by_fack(std::uint32_t dupthres, std::uint32_t mss);

  /// Highest SACKed sequence (snd_fack); snd_una when nothing is SACKed.
  Seq32 highest_sacked() const;

  /// Marks the head (first unSACKed) segment lost. Returns true if marked.
  bool mark_head_lost();

  /// Marks every unSACKed segment lost (RTO behaviour: "mark all
  /// outstanding packets as lost").
  void mark_all_lost();

  /// Clears lost/retrans flags on segments below `ack` — used on spurious
  /// timeout detection; not needed in normal operation.
  void clear_lost_marks();

  // -- Counters (all in segments, mirroring the kernel variables).
  // Maintained incrementally so every accessor is O(1): the sender queries
  // several per ACK, which would otherwise be quadratic per window. --
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
  std::optional<Seq32> next_lost_to_retransmit() const;

  const SegmentState* find(Seq32 seq) const;
  const SegmentState* head() const { return segs_.empty() ? nullptr : &segs_.front(); }
  const std::deque<SegmentState>& segments() const { return segs_; }

 private:
  SegmentState* find_mut(Seq32 seq);

  void set_sacked(SegmentState& s);
  void set_lost(SegmentState& s);
  void clear_retrans_pending(SegmentState& s);

  std::deque<SegmentState> segs_;
  Seq32 next_start_;  // snd_nxt
  bool started_ = false;
  std::uint32_t sacked_out_ = 0;
  std::uint32_t lost_out_ = 0;
  std::uint32_t retrans_out_ = 0;
};

}  // namespace tapo::tcp
