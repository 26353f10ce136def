// Runtime TCP invariant monitor: a zero-cost-when-off observer over the
// sender, receiver, scoreboard, RTO estimator, and congestion state.
//
// Every hook is a pure *read* of the observed component (enforced by the
// tapo_lint `invariant-pure` rule — only const references to protocol
// objects may appear in this file) plus counter bumps inside the monitor
// itself, so enabling the monitor can never change protocol behavior: a
// chaos run with and without the monitor produces bit-identical traces.
//
// Violations are reported, never fatal: counters
// (`tapo_invariant_violations_total{kind}`), a bounded recent-violations
// ring for diagnostics, and a per-flow tally via FlowScope. Aborting inside
// a 1000-scenario storm would hide every violation after the first; the
// differential harness gates on the counters instead.
//
// The invariant catalog (DESIGN.md §16):
//   sequence/ACK accounting   never retransmit already-ACKed bytes,
//                             snd_una <= snd_nxt <= write_seq(+FIN)
//   scoreboard consistency    incremental sacked/lost/retrans counters match
//                             a deep recount; ranges stay contiguous;
//                             sacked+lost <= packets+retrans (Eq. 1 safety)
//   cwnd/ssthresh bounds      cwnd >= 1 always; ssthresh >= 2 outside the
//                             initial no-loss state
//   RTO discipline            rto in [kMinRto, kMaxRto] (200 ms floor),
//                             backoff never shrinks the RTO
//   S-RTO Algorithm 1         probe armed only under the arming
//                             preconditions; cwnd halved on probe only when
//                             cwnd > T2 and not already in Recovery
//   persist liveness          zero-window with pending data always keeps a
//                             timer armed (no silent deadlock), interval
//                             bounded by max(60 s, RTO)
//   receiver sanity           rcv_nxt never regresses; out-of-order blocks
//                             stay sorted/disjoint/above rcv_nxt; emitted
//                             ACKs carry rcv_nxt and well-formed SACKs
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/seq.h"
#include "tcp/receiver.h"
#include "tcp/scoreboard.h"
#include "tcp/sender.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace tapo::tcp {

enum class InvariantKind : std::uint8_t {
  kRetransmitAckedData = 0,  // retransmission target below snd_una
  kSequenceOrder,            // snd_una <= snd_nxt <= write_seq(+FIN) broken
  kScoreboardAccounting,     // counter/recount mismatch or range overlap
  kCwndBounds,               // cwnd < 1
  kSsthreshBounds,           // ssthresh < 2
  kRtoRange,                 // rto outside [kMinRto, kMaxRto]
  kRtoBackoffRegressed,      // backoff produced a smaller RTO
  kSrtoArming,               // probe armed outside Alg. 1 preconditions
  kSrtoCwndGuard,            // probe halved cwnd though cwnd <= T2/in Recovery
  kPersistLiveness,          // zero-window with pending data, no timer armed
  kPersistIntervalRange,     // persist interval above max(60 s, RTO)
  kRcvNxtRegression,         // receiver's rcv_nxt moved backwards
  kOooBookkeeping,           // ooo blocks unsorted/overlapping/below rcv_nxt
  kAckSpecInvalid,           // emitted ACK != rcv_nxt or malformed SACKs
  kKindCount,
};

const char* to_string(InvariantKind k);

/// One reported violation (diagnostics ring; counters are the gate).
struct InvariantViolation {
  InvariantKind kind = InvariantKind::kKindCount;
  std::uint64_t flow = 0;     // FlowScope id active at report time
  std::uint32_t seq = 0;      // raw Seq32 most relevant to the violation
  std::int64_t event_time_us = 0;
};

namespace detail {
// On/off flag mirrors telemetry::metrics_enabled(): an on/off latch with no
// ordering relationship to any other data, checked on every TCP event.
inline std::atomic<bool> g_invariants_enabled{false};
}  // namespace detail

class InvariantMonitor {
 public:
  /// Fast path, checked by every hook before doing any work.
  static bool enabled() {
    // tapo-lint: allow(relaxed-atomic) — same latch as metrics_enabled()
    return detail::g_invariants_enabled.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    // tapo-lint: allow(relaxed-atomic) — same latch as metrics_enabled()
    detail::g_invariants_enabled.store(on, std::memory_order_relaxed);
  }

  /// RAII per-flow attribution. Thread-local: a flow runs its whole life on
  /// one worker thread (ParallelRunner contract), so hooks need no plumbing
  /// of flow ids through the protocol layers.
  class FlowScope {
   public:
    explicit FlowScope(std::uint64_t flow_id);
    ~FlowScope();
    FlowScope(const FlowScope&) = delete;
    FlowScope& operator=(const FlowScope&) = delete;
    /// Violations reported since this scope was entered.
    std::uint64_t violations() const;

   private:
    std::uint64_t prev_id_;
    std::uint64_t prev_count_;
  };

  /// Records one violation: global + per-kind + per-flow counters, the
  /// telemetry counter tapo_invariant_violations_total{kind}, a trace
  /// event, and the bounded recent ring.
  static void report(InvariantKind kind, std::uint32_t seq_raw,
                     std::int64_t event_time_us);

  static std::uint64_t total_violations();
  static std::uint64_t violations(InvariantKind kind);
  /// Copy of the bounded most-recent-violations ring (diagnostics).
  static std::vector<InvariantViolation> recent();
  /// Clears counters and the ring (test isolation); leaves enabled() as is.
  static void reset();
};

// ---------------------------------------------------------------- hooks --
// Call sites in sender.cc / receiver.cc go through these. The inline guard
// keeps the off-path to one relaxed load; the _slow functions (invariants.cc)
// do the actual checking.
namespace invariants {

void sender_event_slow(const TcpSender& s, TimePoint now);
void retransmit_slow(const TcpSender& s, net::Seq32 seq, TimePoint now);
void srto_armed_slow(const TcpSender& s, Duration probe, TimePoint now);
void srto_fired_slow(const TcpSender& s, std::uint32_t cwnd_before,
                     CaState state_before, TimePoint now);
void rto_backoff_slow(const TcpSender& s, Duration old_rto, TimePoint now);
void timer_rearmed_slow(const TcpSender& s, TimePoint now);
void receiver_data_slow(const TcpReceiver& r, net::Seq32 prev_rcv_nxt,
                        TimePoint now);
void ack_spec_slow(const TcpReceiver& r, const TcpReceiver::AckSpec& spec,
                   TimePoint now);

/// Full post-event consistency sweep: sequence order, scoreboard recount,
/// cwnd/ssthresh bounds, RTO range.
inline void on_sender_event(const TcpSender& s, TimePoint now) {
  if (InvariantMonitor::enabled()) sender_event_slow(s, now);
}
/// About to retransmit the segment starting at `seq`.
inline void on_retransmit(const TcpSender& s, net::Seq32 seq, TimePoint now) {
  if (InvariantMonitor::enabled()) retransmit_slow(s, seq, now);
}
/// An S-RTO probe timer is being armed for `probe` from now.
inline void on_srto_armed(const TcpSender& s, Duration probe, TimePoint now) {
  if (InvariantMonitor::enabled()) srto_armed_slow(s, probe, now);
}
/// An S-RTO probe just fired; `cwnd_before`/`state_before` snapshot the
/// window before the conditional halving.
inline void on_srto_fired(const TcpSender& s, std::uint32_t cwnd_before,
                          CaState state_before, TimePoint now) {
  if (InvariantMonitor::enabled()) {
    srto_fired_slow(s, cwnd_before, state_before, now);
  }
}
/// The RTO estimator just backed off; `old_rto` is the pre-backoff value.
inline void on_rto_backoff(const TcpSender& s, Duration old_rto,
                           TimePoint now) {
  if (InvariantMonitor::enabled()) rto_backoff_slow(s, old_rto, now);
}
/// rearm_timer() completed: check liveness (a sender with outstanding or
/// blocked work must keep some timer armed).
inline void on_timer_rearmed(const TcpSender& s, TimePoint now) {
  if (InvariantMonitor::enabled()) timer_rearmed_slow(s, now);
}
/// Receiver consumed a data segment; `prev_rcv_nxt` is rcv_nxt on entry.
inline void on_receiver_data(const TcpReceiver& r, net::Seq32 prev_rcv_nxt,
                             TimePoint now) {
  if (InvariantMonitor::enabled()) receiver_data_slow(r, prev_rcv_nxt, now);
}
/// Receiver is about to emit `spec`.
inline void on_ack_spec(const TcpReceiver& r,
                        const TcpReceiver::AckSpec& spec, TimePoint now) {
  if (InvariantMonitor::enabled()) ack_spec_slow(r, spec, now);
}

}  // namespace invariants

// ---------------------------------------------- delivery integrity -------

/// Result of a DeliveryTracker run; intact() is the per-flow byte-stream
/// integrity gate (the chaos storm requires it for every completed flow).
struct DeliverySummary {
  std::uint64_t expected_bytes = 0;
  std::uint64_t in_order_bytes = 0;    // contiguously delivered from start
  std::uint64_t hole_ranges = 0;       // out-of-order islands never filled
  std::uint64_t duplicate_segments = 0;
  std::uint64_t expected_hash = 0;     // hash of the ideal sent stream
  std::uint64_t delivered_hash = 0;    // hash of the reassembled stream
  bool intact() const {
    return in_order_bytes == expected_bytes && hole_ranges == 0 &&
           delivered_hash == expected_hash;
  }
};

/// Shadow reassembler fed from the packets the client link actually
/// delivered (after chaos). The simulation carries no payload bytes, so
/// stream content is a pure function of stream offset; the tracker hashes
/// that synthetic content in delivery order and finalize() compares it to
/// the hash of the ideal stream. A receiver that silently skips a hole (or
/// a link that delivers bytes twice into the cursor) diverges the hash even
/// though byte *counts* match — that is the point.
class DeliveryTracker {
 public:
  /// `first_byte` is the sequence number of stream offset 0 (server ISN+1).
  explicit DeliveryTracker(net::Seq32 first_byte);

  /// Records a delivered data segment [seq, seq+len). Duplicates and
  /// overlaps are tolerated (counted); FIN/SYN are not data.
  void on_data(net::Seq32 seq, std::uint32_t len);

  /// `expected_stream_bytes` is the total response-byte count the server
  /// was asked to produce.
  DeliverySummary finalize(std::uint64_t expected_stream_bytes) const;

  /// FNV-1a over the synthetic content of stream bytes [0, bytes).
  static std::uint64_t stream_hash(std::uint64_t bytes);

 private:
  void advance_cursor(net::Seq32 end);

  net::Seq32 cursor_seq_;
  std::uint64_t cursor_off_ = 0;
  std::uint64_t hash_;
  std::vector<net::SackBlock> ooo_;
  std::uint64_t dups_ = 0;
};

}  // namespace tapo::tcp
