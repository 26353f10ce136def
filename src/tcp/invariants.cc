#include "tcp/invariants.h"

#include <algorithm>
#include <array>

#include "telemetry/telemetry.h"

namespace tapo::tcp {

namespace {

constexpr std::size_t kKinds =
    static_cast<std::size_t>(InvariantKind::kKindCount);
constexpr std::size_t kRecentRing = 64;

// Counters are seq_cst plain atomics: report() is the cold path (a correct
// build never reaches it), so there is nothing to shave.
std::array<std::atomic<std::uint64_t>, kKinds> g_by_kind{};
std::atomic<std::uint64_t> g_total{0};

// Per-flow attribution. One flow lives on one worker thread for its whole
// life (ParallelRunner contract), so a thread_local pair is enough and the
// protocol layers need no flow-id plumbing.
thread_local std::uint64_t t_flow_id = 0;
thread_local std::uint64_t t_flow_violations = 0;

util::Mutex g_ring_mu;
struct Ring {
  std::array<InvariantViolation, kRecentRing> slots;
  std::size_t head = 0;
  std::size_t size = 0;
};
Ring g_ring TAPO_GUARDED_BY(g_ring_mu);

}  // namespace

const char* to_string(InvariantKind k) {
  switch (k) {
    case InvariantKind::kRetransmitAckedData: return "retransmit_acked_data";
    case InvariantKind::kSequenceOrder: return "sequence_order";
    case InvariantKind::kScoreboardAccounting: return "scoreboard_accounting";
    case InvariantKind::kCwndBounds: return "cwnd_bounds";
    case InvariantKind::kSsthreshBounds: return "ssthresh_bounds";
    case InvariantKind::kRtoRange: return "rto_range";
    case InvariantKind::kRtoBackoffRegressed: return "rto_backoff_regressed";
    case InvariantKind::kSrtoArming: return "srto_arming";
    case InvariantKind::kSrtoCwndGuard: return "srto_cwnd_guard";
    case InvariantKind::kPersistLiveness: return "persist_liveness";
    case InvariantKind::kPersistIntervalRange: return "persist_interval_range";
    case InvariantKind::kRcvNxtRegression: return "rcv_nxt_regression";
    case InvariantKind::kOooBookkeeping: return "ooo_bookkeeping";
    case InvariantKind::kAckSpecInvalid: return "ack_spec_invalid";
    case InvariantKind::kKindCount: break;
  }
  return "?";
}

InvariantMonitor::FlowScope::FlowScope(std::uint64_t flow_id)
    : prev_id_(t_flow_id), prev_count_(t_flow_violations) {
  t_flow_id = flow_id;
  t_flow_violations = 0;
}

InvariantMonitor::FlowScope::~FlowScope() {
  t_flow_id = prev_id_;
  t_flow_violations = prev_count_;
}

std::uint64_t InvariantMonitor::FlowScope::violations() const {
  return t_flow_violations;
}

void InvariantMonitor::report(InvariantKind kind, std::uint32_t seq_raw,
                              std::int64_t event_time_us) {
  const auto idx = static_cast<std::size_t>(kind);
  if (idx >= kKinds) return;
  g_by_kind[idx].fetch_add(1);
  g_total.fetch_add(1);
  ++t_flow_violations;
  if (telemetry::metrics_enabled()) {
    // One static per kind would need a table; the registry lookup dedupes
    // on (name, labels) anyway and this path is cold by definition.
    telemetry::Registry::instance()
        .counter("tapo_invariant_violations_total",
                 {{"kind", to_string(kind)}})
        .add(1);
  }
  TAPO_TRACE(telemetry::EventKind::kInvariantViolation, event_time_us,
             static_cast<std::uint64_t>(idx), seq_raw);
  InvariantViolation v;
  v.kind = kind;
  v.flow = t_flow_id;
  v.seq = seq_raw;
  v.event_time_us = event_time_us;
  util::MutexLock lock(g_ring_mu);
  g_ring.slots[g_ring.head] = v;
  g_ring.head = (g_ring.head + 1) % kRecentRing;
  g_ring.size = std::min(g_ring.size + 1, kRecentRing);
}

std::uint64_t InvariantMonitor::total_violations() { return g_total.load(); }

std::uint64_t InvariantMonitor::violations(InvariantKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  return idx < kKinds ? g_by_kind[idx].load() : 0;
}

std::vector<InvariantViolation> InvariantMonitor::recent() {
  util::MutexLock lock(g_ring_mu);
  std::vector<InvariantViolation> out;
  out.reserve(g_ring.size);
  // Oldest first: head points at the next overwrite slot.
  const std::size_t start =
      g_ring.size < kRecentRing ? 0 : g_ring.head;
  for (std::size_t i = 0; i < g_ring.size; ++i) {
    out.push_back(g_ring.slots[(start + i) % kRecentRing]);
  }
  return out;
}

void InvariantMonitor::reset() {
  for (auto& c : g_by_kind) c.store(0);
  g_total.store(0);
  t_flow_violations = 0;
  util::MutexLock lock(g_ring_mu);
  g_ring.head = 0;
  g_ring.size = 0;
}

namespace invariants {

namespace {

void fail(InvariantKind kind, net::Seq32 seq, TimePoint now) {
  InvariantMonitor::report(kind, seq.raw(), now.us());
}

/// Deep scoreboard recount: the incremental sacked/lost/retrans counters
/// must match a from-scratch walk, ranges must stay contiguous and
/// non-empty, and SACKed+lost can never exceed what was sent (the safety
/// side of in_flight Eq. 1 — a violation here means in_flight() can go
/// negative and the sender bursts).
void check_scoreboard(const Scoreboard& board, TimePoint now) {
  std::uint32_t sacked = 0, lost = 0, retrans = 0;
  const SegmentState* prev = nullptr;
  for (const SegmentState& seg : board.segments()) {
    if (net::at_or_before(seg.end, seg.start)) {
      fail(InvariantKind::kScoreboardAccounting, seg.start, now);
    }
    if (prev != nullptr && !(prev->end == seg.start)) {
      fail(InvariantKind::kScoreboardAccounting, seg.start, now);
    }
    if (seg.sacked) ++sacked;
    if (seg.lost) ++lost;
    if (seg.retrans_pending) ++retrans;
    prev = &seg;
  }
  if (sacked != board.sacked_out() || lost != board.lost_out() ||
      retrans != board.retrans_out()) {
    fail(InvariantKind::kScoreboardAccounting, board.snd_una(), now);
  }
  if (sacked + lost > board.packets_out() + retrans) {
    fail(InvariantKind::kScoreboardAccounting, board.snd_una(), now);
  }
}

}  // namespace

void sender_event_slow(const TcpSender& s, TimePoint now) {
  // Sequence order: snd_una <= snd_nxt <= write_seq (+1 once the FIN has
  // consumed its sequence slot).
  const net::Seq32 una = s.snd_una();
  const net::Seq32 nxt = s.snd_nxt();
  net::Seq32 limit = s.write_seq();
  if (s.fin_sent()) limit = net::advance(limit, 1);
  if (net::after(una, nxt) || net::after(nxt, limit)) {
    fail(InvariantKind::kSequenceOrder, nxt, now);
  }
  if (s.cwnd() < 1) fail(InvariantKind::kCwndBounds, una, now);
  // ssthresh >= 2 (Linux floor) — the untouched initial "infinite" value
  // trivially passes.
  if (s.ssthresh() < 2) fail(InvariantKind::kSsthreshBounds, una, now);
  const Duration rto = s.rto_estimator().rto();
  if (rto < kMinRto || rto > kMaxRto) {
    fail(InvariantKind::kRtoRange, una, now);
  }
  check_scoreboard(s.scoreboard(), now);
}

void retransmit_slow(const TcpSender& s, net::Seq32 seq, TimePoint now) {
  // Never retransmit bytes the peer has cumulatively acknowledged.
  if (net::before(seq, s.snd_una())) {
    fail(InvariantKind::kRetransmitAckedData, seq, now);
  }
}

void srto_armed_slow(const TcpSender& s, Duration probe, TimePoint now) {
  // Re-derive Algorithm 1's arming preconditions from observable state.
  const SegmentState* head = s.scoreboard().first_unsacked();
  const bool preconditions =
      s.config().recovery == RecoveryMechanism::kSrto &&
      head != nullptr && !head->rto_retransmitted &&
      s.packets_out() < s.config().srto.t1;
  if (!preconditions) {
    fail(InvariantKind::kSrtoArming, s.snd_una(), now);
    return;
  }
  // The probe must fire before the native RTO would (that is its purpose);
  // the adaptive stretch is bounded so this holds at every backoff level.
  if (s.rto_estimator().has_sample() && probe >= s.rto_estimator().rto()) {
    fail(InvariantKind::kSrtoArming, s.snd_una(), now);
  }
}

void srto_fired_slow(const TcpSender& s, std::uint32_t cwnd_before,
                     CaState state_before, TimePoint now) {
  // Halving is allowed only when cwnd > T2 and not already in Recovery
  // (Algorithm 1 lines 7-9). A cwnd drop outside those conditions is the
  // "aggressive window reduction" failure mode S-RTO was built to avoid.
  if (s.cwnd() < cwnd_before &&
      (cwnd_before <= s.config().srto.t2 ||
       state_before == CaState::kRecovery)) {
    fail(InvariantKind::kSrtoCwndGuard, s.snd_una(), now);
  }
}

void rto_backoff_slow(const TcpSender& s, Duration old_rto, TimePoint now) {
  if (s.rto_estimator().rto() < old_rto) {
    fail(InvariantKind::kRtoBackoffRegressed, s.snd_una(), now);
  }
}

void timer_rearmed_slow(const TcpSender& s, TimePoint now) {
  // Liveness: an unfinished sender with outstanding segments, or blocked by
  // a zero window while holding undelivered data/FIN, must keep some timer
  // armed — otherwise nothing can ever wake it (the zero-window deadlock
  // class of §4).
  if (!s.finished()) {
    const bool has_pending_data =
        net::before(s.snd_nxt(), s.write_seq()) ||
        (s.fin_pending() && !s.fin_sent());
    const bool must_wake =
        s.packets_out() > 0 || (s.zero_window() && has_pending_data);
    if (must_wake && !s.timer_armed()) {
      fail(InvariantKind::kPersistLiveness, s.snd_nxt(), now);
    }
  }
  // The persist interval starts at the current RTO (which may exceed the
  // 60 s doubling cap) and doubles up to 60 s: bound = max(60 s, RTO).
  const Duration bound =
      std::max(Duration::seconds(60.0), s.rto_estimator().rto());
  if (s.persist_interval() > bound) {
    fail(InvariantKind::kPersistIntervalRange, s.snd_nxt(), now);
  }
}

void receiver_data_slow(const TcpReceiver& r, net::Seq32 prev_rcv_nxt,
                        TimePoint now) {
  if (net::before(r.rcv_nxt(), prev_rcv_nxt)) {
    fail(InvariantKind::kRcvNxtRegression, r.rcv_nxt(), now);
  }
  // Out-of-order bookkeeping: sorted, pairwise disjoint, every block
  // non-empty and strictly above rcv_nxt (touching blocks must have been
  // merged; a block at/below rcv_nxt should have been absorbed).
  const std::vector<net::SackBlock>& ooo = r.ooo_blocks();
  for (std::size_t i = 0; i < ooo.size(); ++i) {
    if (net::at_or_before(ooo[i].end, ooo[i].start) ||
        net::at_or_before(ooo[i].start, r.rcv_nxt())) {
      fail(InvariantKind::kOooBookkeeping, ooo[i].start, now);
    }
    if (i > 0 && net::at_or_before(ooo[i].start, ooo[i - 1].end)) {
      fail(InvariantKind::kOooBookkeeping, ooo[i].start, now);
    }
  }
}

void ack_spec_slow(const TcpReceiver& r, const TcpReceiver::AckSpec& spec,
                   TimePoint now) {
  // A cumulative ACK always advertises exactly rcv_nxt.
  if (!(spec.ack == r.rcv_nxt())) {
    fail(InvariantKind::kAckSpecInvalid, spec.ack, now);
  }
  if (spec.rwnd_bytes > r.buffer_capacity()) {
    fail(InvariantKind::kAckSpecInvalid, spec.ack, now);
  }
  for (std::size_t i = 0; i < spec.sack_blocks.size(); ++i) {
    const net::SackBlock& b = spec.sack_blocks[i];
    if (net::at_or_before(b.end, b.start)) {
      fail(InvariantKind::kAckSpecInvalid, b.start, now);
    }
    // Non-DSACK blocks report out-of-order data, which lies strictly above
    // the cumulative ACK. Only the leading block may be a duplicate report.
    if (i > 0 && net::at_or_before(b.end, spec.ack)) {
      fail(InvariantKind::kAckSpecInvalid, b.start, now);
    }
  }
}

}  // namespace invariants

// ---------------------------------------------- delivery integrity -------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Synthetic content of stream byte `off`: byte (off & 7) of
/// splitmix64(off >> 3). Position-dependent, so any swap, skip, or
/// double-count of bytes changes the accumulated hash.
std::uint8_t stream_byte(std::uint64_t off) {
  return static_cast<std::uint8_t>(splitmix64(off >> 3) >> ((off & 7) * 8));
}

std::uint64_t fnv_step(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

}  // namespace

DeliveryTracker::DeliveryTracker(net::Seq32 first_byte)
    : cursor_seq_(first_byte), hash_(kFnvOffset) {}

std::uint64_t DeliveryTracker::stream_hash(std::uint64_t bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t off = 0; off < bytes; ++off) {
    h = fnv_step(h, stream_byte(off));
  }
  return h;
}

void DeliveryTracker::advance_cursor(net::Seq32 end) {
  while (net::before(cursor_seq_, end)) {
    hash_ = fnv_step(hash_, stream_byte(cursor_off_));
    cursor_seq_ = net::advance(cursor_seq_, 1);
    ++cursor_off_;
  }
  // Absorb out-of-order islands the cursor has reached.
  while (!ooo_.empty() && net::at_or_after(cursor_seq_, ooo_.front().start)) {
    if (net::after(ooo_.front().end, cursor_seq_)) {
      const net::Seq32 island_end = ooo_.front().end;
      ooo_.erase(ooo_.begin());
      advance_cursor(island_end);
      return;  // recursion handled the rest of the list
    }
    ooo_.erase(ooo_.begin());
  }
}

void DeliveryTracker::on_data(net::Seq32 seq, std::uint32_t len) {
  if (len == 0) return;
  net::Seq32 start = seq;
  const net::Seq32 end = net::advance(seq, len);
  if (net::at_or_before(end, cursor_seq_)) {
    ++dups_;  // entirely old data
    return;
  }
  if (net::before(start, cursor_seq_)) {
    ++dups_;  // partial overlap with delivered bytes
    start = cursor_seq_;
  }
  if (start == cursor_seq_) {
    advance_cursor(end);
    return;
  }
  // Out-of-order: insert [start, end) and renormalize to a sorted disjoint
  // list. Deliberately independent of the receiver's add_ooo — a shared
  // helper could hide a shared bug from the integrity check.
  bool covered = false;
  for (const net::SackBlock& b : ooo_) {
    if (net::at_or_before(b.start, start) && net::at_or_after(b.end, end)) {
      covered = true;  // a full repeat of an island we already hold
      break;
    }
  }
  if (covered) {
    ++dups_;
    return;
  }
  ooo_.push_back({start, end});
  std::sort(ooo_.begin(), ooo_.end(),
            [](const net::SackBlock& a, const net::SackBlock& b) {
              return net::before(a.start, b.start);
            });
  std::vector<net::SackBlock> merged;
  for (const net::SackBlock& b : ooo_) {
    if (!merged.empty() && net::at_or_before(b.start, merged.back().end)) {
      merged.back().end = net::seq_max(merged.back().end, b.end);
    } else {
      merged.push_back(b);
    }
  }
  ooo_ = std::move(merged);
}

DeliverySummary DeliveryTracker::finalize(
    std::uint64_t expected_stream_bytes) const {
  DeliverySummary s;
  s.expected_bytes = expected_stream_bytes;
  s.in_order_bytes = cursor_off_;
  s.hole_ranges = ooo_.size();
  s.duplicate_segments = dups_;
  s.expected_hash = stream_hash(expected_stream_bytes);
  s.delivered_hash = hash_;
  return s;
}

}  // namespace tapo::tcp
