#include "tapo/analyzer.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>

#include "tcp/rto.h"
#include "telemetry/telemetry.h"

namespace tapo::analysis {

const char* to_string(StallCause c) {
  switch (c) {
    case StallCause::kDataUnavailable: return "data_unavailable";
    case StallCause::kResourceConstraint: return "resource_constraint";
    case StallCause::kClientIdle: return "client_idle";
    case StallCause::kZeroWindow: return "zero_rwnd";
    case StallCause::kPacketDelay: return "packet_delay";
    case StallCause::kRetransmission: return "retransmission";
    case StallCause::kUndetermined: return "undetermined";
  }
  return "?";
}

const char* to_string(RetransCause c) {
  switch (c) {
    case RetransCause::kDoubleRetrans: return "double_retrans";
    case RetransCause::kTailRetrans: return "tail_retrans";
    case RetransCause::kSmallCwnd: return "small_cwnd";
    case RetransCause::kSmallRwnd: return "small_rwnd";
    case RetransCause::kContinuousLoss: return "continuous_loss";
    case RetransCause::kAckDelayLoss: return "ack_delay_loss";
    case RetransCause::kUndetermined: return "undetermined";
    case RetransCause::kNone: return "none";
  }
  return "?";
}

void AnalyzerConfig::validate() const {
  if (!(tau > 0.0)) {
    throw std::invalid_argument("AnalyzerConfig: tau must be > 0, got " +
                                std::to_string(tau));
  }
  if (dup_window && *dup_window < Duration::zero()) {
    throw std::invalid_argument("AnalyzerConfig: dup_window must be >= 0");
  }
  if (ts_quantum < Duration::zero()) {
    throw std::invalid_argument("AnalyzerConfig: ts_quantum must be >= 0");
  }
}

namespace {

/// The measured kernel's fast-retransmit threshold (2.6.32's
/// sysctl_tcp_reordering): SACKed segments above a hole that mark it lost,
/// and the response-tail zone, in segments, of the tail-retransmission rule.
constexpr std::uint32_t kDupthres = 3;
/// "Small" in-flight bound of the small-cwnd/rwnd rules: with fewer than
/// 4 MSS in flight fast retransmit cannot trigger (§4.3).
constexpr std::uint32_t kSmallInflight = 4;
/// A retransmission counts as timeout-driven when the segment had been
/// quiet for at least this fraction of the estimated RTO.
constexpr double kRtoFraction = 0.9;

/// Telemetry tap for every classified stall. The per-cause counters are the
/// ground truth the Prometheus snapshot exposes: any stall table a consumer
/// builds from FlowAnalysis sums to exactly these totals, because both are
/// incremented from the same classification site. The trace event packs the
/// classification into the payload words (decoded by the Chrome exporter):
///   a = duration in us
///   b = cause | retrans_cause<<8 | state<<16 | f_double<<24 | in_flight<<32
void record_stall(const StallRecord& rec) {
  const auto dur_us = static_cast<std::uint64_t>(rec.duration.us());
  TAPO_TRACE(telemetry::EventKind::kStallSpan, rec.start.us(), dur_us,
             static_cast<std::uint64_t>(rec.cause) |
                 static_cast<std::uint64_t>(rec.retrans_cause) << 8 |
                 static_cast<std::uint64_t>(rec.state_at_stall) << 16 |
                 static_cast<std::uint64_t>(rec.f_double) << 24 |
                 static_cast<std::uint64_t>(rec.in_flight) << 32);
  if (!telemetry::metrics_enabled()) return;
  auto& registry = telemetry::Registry::instance();
  // Not cached: stalls are rare (the registry lookup is off the hot path)
  // and the label set varies per call.
  const std::vector<telemetry::Label> by_cause = {
      {"cause", to_string(rec.cause)}};
  registry.counter("tapo_stalls_total", by_cause).add(1);
  registry.counter("tapo_stall_time_us_total", by_cause).add(dur_us);
  if (rec.cause == StallCause::kRetransmission) {
    registry
        .counter("tapo_stall_retrans_total",
                 {{"retrans_cause", to_string(rec.retrans_cause)}})
        .add(1);
  }
  static auto& duration_hist = registry.histogram("tapo_stall_duration_us");
  duration_hist.observe(dur_us);
}

/// Telemetry tap for the per-flow CaptureQuality record, incremented once
/// per analyzed flow from the record's own totals, so the counters and any
/// sum over FlowAnalysis::capture agree exactly (the robustness harness
/// asserts this).
void record_capture_quality(const CaptureQuality& q) {
  if (!telemetry::metrics_enabled()) return;
  auto& registry = telemetry::Registry::instance();
  const auto bump = [&registry](const char* kind, std::uint64_t n) {
    if (n == 0) return;
    registry.counter("tapo_capture_artifacts_total", {{"kind", kind}}).add(n);
  };
  bump("duplicate", q.dup_packets);
  bump("seq_gap", q.seq_gaps);
  bump("truncated", q.truncated_packets);
  bump("mid_stream", q.mid_stream ? 1 : 0);
  bump("suspect_stall", q.suspect_stalls);
  if (q.degraded()) {
    registry.counter("tapo_flows_degraded_total").add(1);
  }
}

/// Per-segment state reconstructed by the mimic. Segments persist for the
/// whole analysis (never popped) so stall classification can look ahead.
struct SegMimic {
  SegMimic(net::Seq32 s, net::Seq32 e, std::uint32_t idx, TimePoint sent)
      : start(s), end(e), index(idx), first_tx(sent), last_tx(sent) {}

  net::Seq32 start;
  net::Seq32 end;
  std::uint32_t index;  // ordinal among unique data segments
  std::uint32_t tx_count = 1;
  // Transmit times, inline. Capture reordering and jitter can stamp a
  // transmission earlier than the one before it, so the latest time is
  // not always the last one; latest_before_last is valid once
  // tx_count > 1.
  TimePoint first_tx;
  TimePoint last_tx;
  TimePoint latest_before_last;
  TimePoint acked_time = TimePoint::max();
  TimePoint sacked_time = TimePoint::max();
  bool first_retrans_was_rto = false;
  bool dsacked = false;
  /// Synthesized for a server-side sequence gap: the capture never recorded
  /// the original transmission of these bytes. Never yields RTT samples;
  /// "retransmissions" of it demote their stall to kUndetermined.
  bool inferred = false;
  // Live flags during the walk (scoreboard mirror). Acked is implicit: a
  // segment is acked exactly when its index is below first_unacked_idx_.
  bool sacked = false;
  bool lost_est = false;
  bool retrans_pending = false;

  std::uint32_t len() const { return net::distance(start, end); }
  int transmissions() const { return static_cast<int>(tx_count); }
  TimePoint latest_tx() const {
    return tx_count > 1 ? std::max(latest_before_last, last_tx) : last_tx;
  }
  void add_tx(TimePoint t) {
    latest_before_last = latest_tx();
    last_tx = t;
    ++tx_count;
  }
  /// A late capture record of the last transmission: it replaces that
  /// transmission's time.
  void restamp_last_tx(TimePoint t) {
    if (tx_count == 1) first_tx = t;
    last_tx = t;
  }
};
// One per unique data segment for the whole analysis of a flow.
static_assert(sizeof(SegMimic) <= 72);

/// Per-packet snapshot written during the mimic walk (pass 1) and consumed
/// by the stall detector/classifier (pass 2).
struct PktAnno {
  /// The packet's (quantum-floored) timestamp, kept here so the stall
  /// pass never goes back to the packet storage.
  TimePoint ts;
  tcp::CaState state = tcp::CaState::kOpen;
  std::uint32_t in_flight = 0;
  std::uint32_t outstanding = 0;  // packets_out
  std::uint32_t cwnd_est = 0;
  std::uint32_t rwnd_scaled = 0;
  bool has_srtt = false;
  Duration srtt;
  Duration rto;
  bool established = false;

  bool server_data = false;
  bool is_retrans = false;
  bool is_timeout_retrans = false;
  int prior_retrans = 0;
  bool first_retrans_was_rto = false;
  int seg_idx = -1;
  bool is_request = false;
  /// This packet's evidence overlaps a capture artifact (retransmission of
  /// an inferred gap segment): cause classification cannot be trusted.
  bool capture_suspect = false;
};
// One per packet of the flow: growth costs peak memory directly.
static_assert(sizeof(PktAnno) <= 72);


/// The one packet shape the mimic understands. FlowMimic::pkt lowers each
/// CapturedPacket to it on the fly; it is stack data plus a borrowed SACK
/// span.
struct PacketView {
  TimePoint ts;
  net::Seq32 seq;
  net::Seq32 ack;
  std::uint32_t payload = 0;
  std::uint16_t window = 0;
  net::TcpFlags flags;
  bool from_server = false;
  std::span<const net::SackBlock> sacks;
  bool truncated = false;  // snaplen cut this record's options
};

/// The TCP-stack mimic + stall classifier over one FlowView, reading its
/// CapturedPackets in place from whatever storage was demuxed; nothing per
/// packet is materialized.
class FlowMimic {
 public:
  FlowMimic(const FlowView& view, const AnalyzerConfig& config)
      : view_(view), config_(config) {
    if (view_.mid_stream) {
      // No handshake in the capture: seed sequence state from the first
      // server data packet and remember that this "stream head" is
      // synthetic — it is where the *capture* starts, not necessarily
      // where a response starts.
      snd_nxt_ = view_.first_server_data_seq;
      quality_.mid_stream = true;
    } else {
      snd_nxt_ = view_.server_isn + 1;
    }
    snd_una_ = snd_nxt_;
    stream_head_ = snd_nxt_;
    head_seqs_.push_back(snd_nxt_);  // the first response starts the stream
  }

  void run(FlowAnalysis& out);

 private:
  /// The one packet accessor the mimic uses: the view's record with the
  /// timestamp floored to config ts_quantum (identity when the quantum is
  /// off). Keeping this the single ingest point is what makes the
  /// quantization-invariance guarantee structural rather than per-site.
  PacketView pkt(std::size_t i) const {
    const net::CapturedPacket& cp = view_.packet(i);
    return {floor_to(cp.timestamp, config_.ts_quantum),
            cp.tcp.seq,
            cp.tcp.ack,
            cp.payload_len,
            cp.tcp.window,
            cp.tcp.flags,
            cp.key == view_.server_to_client,
            cp.tcp.sack_blocks.span(),
            cp.truncated};
  }
  /// Starts loading packet i's record ahead of use. The pointer pool is
  /// sequential, but the records it points at are scattered across the
  /// capture, where the hardware prefetcher cannot follow.
  void prefetch(std::size_t i) const {
    if (i >= view_.size()) return;
    // A record can straddle three cache lines; touch each one.
    const auto* rec = reinterpret_cast<const char*>(&view_.packet(i));
    for (std::size_t off = 0; off < sizeof(net::CapturedPacket); off += 64) {
      __builtin_prefetch(rec + off);
    }
    __builtin_prefetch(rec + sizeof(net::CapturedPacket) - 1);
  }

  SegMimic* find_seg(net::Seq32 seq);
  bool is_capture_dup(const PacketView& a, const PacketView& b) const;

  // Eq.-1 scoreboard. The window is segs_[first_unacked_idx_, end); the
  // counters count window segments only, and every flag flip goes through
  // these helpers so they stay exact.
  std::uint32_t packets_out() const {
    return static_cast<std::uint32_t>(segs_.size() - first_unacked_idx_);
  }
  std::uint32_t in_flight() const {
    // Eq. 1: packets_out + retrans_out - (sacked_out + lost_out).
    const std::uint32_t total = packets_out() + retrans_out_;
    const std::uint32_t gone = sacked_out_ + lost_out_;
    return total > gone ? total - gone : 0;
  }
  bool in_window(const SegMimic& s) const {
    return s.index >= first_unacked_idx_;
  }
  void set_sacked(SegMimic& s);
  void set_lost(SegMimic& s, bool lost);
  void set_retrans(SegMimic& s, bool pending);
  void ack_segment(SegMimic& s, TimePoint at);
  void mark_lost_by_sack();
#ifndef NDEBUG
  void check_scoreboard() const;
#endif

  void process_server_packet(const PacketView& p, PktAnno& a,
                             FlowAnalysis& out);
  void process_client_packet(const PacketView& p, PktAnno& a,
                             FlowAnalysis& out);
  void snapshot(PktAnno& a) const;
  void detect_and_classify(FlowAnalysis& out);
  StallRecord classify_stall(std::size_t prev_idx, std::size_t cur_idx) const;
  RetransCause classify_retrans(const PktAnno& prev, const PktAnno& cur,
                                TimePoint stall_start, bool& f_double) const;
  net::Seq32 response_end_for(const SegMimic& seg) const;

  /// How many packets ahead of the walk prefetch() starts loading.
  static constexpr std::size_t kPrefetchAhead = 8;

  const FlowView& view_;
  const AnalyzerConfig& config_;
  tcp::RtoEstimator rto_;

  std::vector<SegMimic> segs_;
  std::vector<PktAnno> annos_;
  // Response start sequences, appended in order as snd_nxt_ only grows:
  // per-flow values span far less than 2^31 bytes, so the vector is
  // sorted under SeqLess.
  std::vector<net::Seq32> head_seqs_;

  net::Seq32 snd_una_;
  net::Seq32 snd_nxt_;
  net::Seq32 stream_head_;  // initial snd_nxt_ (synthetic when mid-stream)
  std::size_t first_unacked_idx_ = 0;  // index into segs_ (monotone)
  std::uint32_t sacked_out_ = 0;
  std::uint32_t lost_out_ = 0;
  std::uint32_t retrans_out_ = 0;
  // Lost-by-SACK cursor (>= first_unacked_idx_): every window segment below
  // it is SACKed or lost. sacked_from_cursor_ counts the SACKed segments at
  // or above it.
  std::size_t lost_cursor_ = 0;
  std::uint32_t sacked_from_cursor_ = 0;
  CaptureQuality quality_;

  tcp::CaState state_ = tcp::CaState::kOpen;
  std::uint32_t cwnd_est_ = 3;
  std::uint32_t ssthresh_est_ = 0x7fffffff;
  std::uint32_t cwnd_credit_ = 0;
  std::uint32_t dupacks_ = 0;
  net::Seq32 high_seq_est_;
  std::uint32_t rwnd_scaled_ = 0xffffffff;
  bool established_ = false;
  TimePoint synack_ts_;
  bool saw_synack_ = false;
  bool handshake_sampled_ = false;

  double rto_sample_sum_us_ = 0.0;
  std::uint64_t rto_sample_count_ = 0;
};

SegMimic* FlowMimic::find_seg(net::Seq32 seq) {
  // Segments are sorted by start; binary search for the containing one.
  auto it = std::upper_bound(
      segs_.begin(), segs_.end(), seq,
      [](net::Seq32 s, const SegMimic& seg) { return net::before(s, seg.start); });
  if (it == segs_.begin()) return nullptr;
  --it;
  return net::seq_in_range(seq, it->start, it->end) ? &*it : nullptr;
}

bool FlowMimic::is_capture_dup(const PacketView& a,
                               const PacketView& b) const {
  // Identical header (direction, seq/ack, length, window, flags, SACKs)
  // within dup_window of each other. A retransmission repeats seq but
  // arrives at least an RTT later; capture duplicates arrive back to back
  // (same timestamp for mirror ports), so the window separates the two.
  if (a.from_server != b.from_server || a.seq != b.seq || a.ack != b.ack ||
      a.payload != b.payload || a.window != b.window ||
      !(a.flags == b.flags)) {
    return false;
  }
  if (a.sacks.size() != b.sacks.size()) return false;
  for (std::size_t i = 0; i < a.sacks.size(); ++i) {
    if (!(a.sacks[i] == b.sacks[i])) return false;
  }
  const Duration d = b.ts >= a.ts ? b.ts - a.ts : a.ts - b.ts;
  return d <= *config_.dup_window;
}

void FlowMimic::set_sacked(SegMimic& s) {
  // Only window segments are SACKed, and a SACK is never revoked.
  s.sacked = true;
  ++sacked_out_;
  if (s.index >= lost_cursor_) ++sacked_from_cursor_;
}

void FlowMimic::set_lost(SegMimic& s, bool lost) {
  if (s.lost_est == lost) return;
  s.lost_est = lost;
  if (!in_window(s)) return;
  if (lost) {
    ++lost_out_;
  } else {
    --lost_out_;
  }
}

void FlowMimic::set_retrans(SegMimic& s, bool pending) {
  if (s.retrans_pending == pending) return;
  s.retrans_pending = pending;
  if (!in_window(s)) return;
  if (pending) {
    ++retrans_out_;
  } else {
    --retrans_out_;
  }
}

void FlowMimic::ack_segment(SegMimic& s, TimePoint at) {
  // s is segs_[first_unacked_idx_]: it leaves the window and the counters.
  s.acked_time = at;
  if (s.sacked) {
    --sacked_out_;
    if (s.index >= lost_cursor_) --sacked_from_cursor_;
  }
  if (s.lost_est) --lost_out_;
  if (s.retrans_pending) --retrans_out_;
  ++first_unacked_idx_;
  lost_cursor_ = std::max(lost_cursor_, first_unacked_idx_);
}

void FlowMimic::mark_lost_by_sack() {
  // An unSACKed window segment is lost once dupthres SACKed segments lie
  // above it. Segments only leave the window from below and SACKs are
  // never revoked, so those segments form a window prefix that only
  // grows. A segment the cursor has passed stays SACKed or lost (only a
  // SACK clears lost_est), so each segment is visited once.
  while (lost_cursor_ < segs_.size()) {
    SegMimic& s = segs_[lost_cursor_];
    const std::uint32_t sacked_above = sacked_from_cursor_ - (s.sacked ? 1 : 0);
    if (sacked_above < kDupthres) break;
    if (s.sacked) {
      --sacked_from_cursor_;
    } else if (!s.lost_est) {
      set_lost(s, true);
      set_retrans(s, false);
    }
    ++lost_cursor_;
  }
}

#ifndef NDEBUG
void FlowMimic::check_scoreboard() const {
  // From-scratch recount of everything the counters and cursor replace.
  std::uint32_t sacked = 0, lost = 0, retrans = 0, sacked_from_cursor = 0;
  for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
    const SegMimic& s = segs_[i];
    sacked += s.sacked ? 1 : 0;
    lost += s.lost_est ? 1 : 0;
    retrans += s.retrans_pending ? 1 : 0;
    if (i >= lost_cursor_) {
      sacked_from_cursor += s.sacked ? 1 : 0;
    } else {
      assert(s.sacked || s.lost_est);
    }
  }
  assert(first_unacked_idx_ <= lost_cursor_ && lost_cursor_ <= segs_.size());
  assert(sacked == sacked_out_);
  assert(lost == lost_out_);
  assert(retrans == retrans_out_);
  assert(sacked_from_cursor == sacked_from_cursor_);
}
#endif

void FlowMimic::snapshot(PktAnno& a) const {
  a.state = state_;
  a.in_flight = in_flight();
  a.outstanding = packets_out();
  a.cwnd_est = cwnd_est_;
  a.rwnd_scaled = rwnd_scaled_;
  a.has_srtt = rto_.has_sample();
  a.srtt = rto_.srtt();
  a.rto = rto_.rto();
  a.established = established_;
}

void FlowMimic::process_server_packet(const PacketView& p, PktAnno& a,
                                      FlowAnalysis& out) {
  const std::uint32_t eff_len = p.payload + (p.flags.fin ? 1u : 0u);
  if (p.flags.syn) {
    synack_ts_ = p.ts;
    saw_synack_ = true;
    return;
  }
  if (eff_len == 0) return;  // pure ACK

  a.server_data = true;
  const net::Seq32 end = p.seq + eff_len;

  if (net::at_or_after(p.seq, snd_nxt_)) {
    if (net::after(p.seq, snd_nxt_)) {
      // Capture gap: the server must have sent [snd_nxt_, p.seq) for this
      // packet to exist, but the capture never recorded it (kernel capture
      // drop). Track an inferred segment so ACK/SACK bookkeeping stays
      // consistent; it never yields RTT samples, and a later
      // "retransmission" of it demotes its stall to kUndetermined.
      segs_.emplace_back(snd_nxt_, p.seq,
                         static_cast<std::uint32_t>(segs_.size()), p.ts);
      segs_.back().inferred = true;
      ++quality_.seq_gaps;
      quality_.gap_bytes += net::distance(snd_nxt_, p.seq);
    }
    // New data.
    a.seg_idx = static_cast<int>(segs_.size());
    segs_.emplace_back(p.seq, end, static_cast<std::uint32_t>(segs_.size()),
                       p.ts);
    snd_nxt_ = end;
    return;
  }

  // Retransmission — or a late record filling an inferred capture gap.
  SegMimic* seg = find_seg(p.seq);
  if (seg == nullptr) return;  // overlap we cannot attribute
  if (seg->inferred && seg->start == p.seq && seg->end == end) {
    // Local capture reordering, not a retransmission: the record for
    // exactly these bytes arrived one slot late. Adopt it as the original
    // transmission and un-count the gap.
    seg->inferred = false;
    seg->restamp_last_tx(p.ts);
    a.seg_idx = static_cast<int>(seg->index);
    --quality_.seq_gaps;
    quality_.gap_bytes -= seg->len();
    return;
  }
  a.is_retrans = true;
  a.seg_idx = static_cast<int>(seg->index);
  a.prior_retrans = seg->transmissions() - 1;
  if (seg->inferred) a.capture_suspect = true;

  const Duration elapsed = p.ts - seg->last_tx;
  const Duration rto_now = rto_.rto();
  bool is_rto;
  if (dupacks_ >= kDupthres && elapsed < rto_now) {
    is_rto = false;  // enough dupacks and before the timer: fast retransmit
  } else {
    is_rto = elapsed >= rto_now * kRtoFraction;
  }
  a.is_timeout_retrans = is_rto;
  a.first_retrans_was_rto = seg->first_retrans_was_rto;

  if (seg->transmissions() == 1) seg->first_retrans_was_rto = is_rto;
  seg->add_tx(p.ts);
  set_retrans(*seg, true);
  set_lost(*seg, true);

  if (is_rto) {
    // The observed inter-transmission gap IS the timer that fired,
    // including any exponential backoff.
    out.rto_at_timeout_us.push_back(static_cast<double>(elapsed.us()));
    if (state_ != tcp::CaState::kLoss) {
      ssthresh_est_ = std::max<std::uint32_t>(cwnd_est_ / 2, 2);
    }
    state_ = tcp::CaState::kLoss;
    high_seq_est_ = snd_nxt_;
    cwnd_est_ = 1;
    dupacks_ = 0;
    // Every unSACKed window segment is lost. Below the lost-by-SACK cursor
    // they already are, so the walk starts there and takes the cursor past
    // the window: each segment is still visited once.
    for (; lost_cursor_ < segs_.size(); ++lost_cursor_) {
      SegMimic& s = segs_[lost_cursor_];
      if (!s.sacked) set_lost(s, true);
    }
    sacked_from_cursor_ = 0;
  } else {
    if (state_ != tcp::CaState::kRecovery && state_ != tcp::CaState::kLoss) {
      state_ = tcp::CaState::kRecovery;
      ssthresh_est_ = std::max<std::uint32_t>(cwnd_est_ / 2, 2);
      high_seq_est_ = snd_nxt_;
    }
  }
}

void FlowMimic::process_client_packet(const PacketView& p, PktAnno& a,
                                      FlowAnalysis& out) {
  if (p.flags.syn) return;
  if (!established_) established_ = true;

  // Handshake RTT seed (SYN-ACK -> first client ACK), as the kernel does.
  if (saw_synack_ && !handshake_sampled_ && p.flags.ack) {
    handshake_sampled_ = true;
    const Duration rtt = p.ts - synack_ts_;
    rto_.sample(rtt);
    out.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
  }

  rwnd_scaled_ = static_cast<std::uint32_t>(p.window) << view_.client_wscale;
  if (rwnd_scaled_ == 0) out.had_zero_rwnd = true;

  if (p.payload > 0) {
    a.is_request = true;
    // The next new server data starts a fresh response.
    if (head_seqs_.back() != snd_nxt_) head_seqs_.push_back(snd_nxt_);
  }

  if (!p.flags.ack) return;

  // DSACK detection (RFC 2883): leading block below the cumulative ACK or
  // contained in the second block.
  if (!p.sacks.empty()) {
    const auto& b0 = p.sacks[0];
    const bool below_ack = net::at_or_before(b0.end, p.ack);
    const bool inside_second =
        p.sacks.size() >= 2 &&
        net::at_or_after(b0.start, p.sacks[1].start) &&
        net::at_or_before(b0.end, p.sacks[1].end);
    if (below_ack || inside_second) {
      if (SegMimic* seg = find_seg(b0.start)) {
        if (!seg->dsacked && seg->transmissions() > 1) {
          seg->dsacked = true;
          ++out.spurious_retrans;
        }
      }
    }
  }

  // SACK application (blocks above snd_una). Window segments are
  // contiguous and ordered by start, so the ones a block covers are the run
  // from the first segment starting at or after its start.
  for (const auto& b : p.sacks) {
    if (net::at_or_before(b.end, snd_una_)) continue;
    auto it = std::partition_point(
        segs_.begin() + static_cast<std::ptrdiff_t>(first_unacked_idx_),
        segs_.end(),
        [&b](const SegMimic& s) { return net::before(s.start, b.start); });
    for (; it != segs_.end() && net::at_or_before(it->end, b.end); ++it) {
      SegMimic& s = *it;
      if (s.sacked) continue;
      set_sacked(s);
      s.sacked_time = std::min(s.sacked_time, p.ts);
      set_lost(s, false);
      set_retrans(s, false);
      if (s.transmissions() == 1 && !s.inferred) {
        // SACK-time RTT sample, mirroring the sender.
        const Duration rtt = p.ts - s.first_tx;
        rto_.sample(rtt);
        out.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
      }
    }
  }

  const bool ack_advanced = net::after(p.ack, snd_una_);
  std::uint32_t n_acked = 0;
  if (ack_advanced) {
    // Karn's rule + newest-candidate sampling, mirroring the sender.
    TimePoint newest;
    bool have = false;
    while (first_unacked_idx_ < segs_.size()) {
      SegMimic& s = segs_[first_unacked_idx_];
      if (net::after(s.end, p.ack)) break;
      ++n_acked;
      if (s.transmissions() == 1 && !s.sacked && !s.inferred &&
          (!have || s.first_tx > newest)) {
        newest = s.first_tx;
        have = true;
      }
      ack_segment(s, p.ts);
    }
    if (have) {
      const Duration rtt = p.ts - newest;
      rto_.sample(rtt);
      out.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
    }
    snd_una_ = p.ack;
    dupacks_ = 0;
  } else if (p.payload == 0 && packets_out() > 0) {
    ++dupacks_;
  }

  // State transitions mirroring Fig. 4.
  switch (state_) {
    case tcp::CaState::kOpen:
    case tcp::CaState::kDisorder: {
      state_ = (dupacks_ > 0 || sacked_out_ > 0) ? tcp::CaState::kDisorder
                                                 : tcp::CaState::kOpen;
      mark_lost_by_sack();
      if (ack_advanced) {
        // Window growth (Reno-like estimate).
        if (cwnd_est_ < ssthresh_est_) {
          cwnd_est_ += n_acked;
        } else {
          cwnd_credit_ += n_acked;
          if (cwnd_credit_ >= cwnd_est_ && cwnd_est_ > 0) {
            cwnd_credit_ -= cwnd_est_;
            ++cwnd_est_;
          }
        }
      }
      break;
    }
    case tcp::CaState::kRecovery: {
      mark_lost_by_sack();
      if (net::at_or_after(snd_una_, high_seq_est_)) {
        state_ = tcp::CaState::kOpen;
        cwnd_est_ = std::min(cwnd_est_, std::max<std::uint32_t>(ssthresh_est_, 2));
        dupacks_ = 0;
      } else if (++cwnd_credit_ % 2 == 0 && cwnd_est_ > ssthresh_est_) {
        --cwnd_est_;  // rate halving
      }
      break;
    }
    case tcp::CaState::kLoss: {
      if (ack_advanced) {
        if (cwnd_est_ < ssthresh_est_) cwnd_est_ += n_acked;
      }
      if (net::at_or_after(snd_una_, high_seq_est_)) {
        state_ = tcp::CaState::kOpen;
        dupacks_ = 0;
      }
      break;
    }
  }

  out.inflight_on_ack.push_back(in_flight());
  rto_sample_sum_us_ += static_cast<double>(rto_.rto().us());
  ++rto_sample_count_;
}

net::Seq32 FlowMimic::response_end_for(const SegMimic& seg) const {
  auto it = std::upper_bound(head_seqs_.begin(), head_seqs_.end(), seg.start,
                             net::SeqLess{});
  if (it != head_seqs_.end()) return *it;
  return snd_nxt_;  // final: end of everything the server sent
}

void FlowMimic::run(FlowAnalysis& out) {
  out.key = view_.server_to_client;
  out.init_rwnd_bytes = view_.init_rwnd_bytes;
  out.init_rwnd_mss = view_.mss ? view_.init_rwnd_bytes / view_.mss : 0;

  annos_.resize(view_.size());
  for (std::size_t i = 0; i < view_.size(); ++i) {
    prefetch(i + kPrefetchAhead);
    const PacketView p = pkt(i);
    PktAnno& a = annos_[i];
    if (p.truncated) ++quality_.truncated_packets;
    if (config_.dup_window && i > 0 &&
        is_capture_dup(pkt(i - 1), p)) {
      // Capture duplicate (mirror port / dual tap): the stack saw this
      // packet once. Carry the previous packet's state snapshot forward
      // without re-processing, so the copy adds no data, retransmission,
      // or request accounting.
      a = annos_[i - 1];
      a.ts = p.ts;
      a.server_data = false;
      a.is_retrans = false;
      a.is_timeout_retrans = false;
      a.is_request = false;
      a.seg_idx = -1;
      a.capture_suspect = false;
      ++quality_.dup_packets;
      continue;
    }
    a.ts = p.ts;
    if (p.from_server) {
      process_server_packet(p, a, out);
      if (a.server_data) {
        ++out.data_segments;
        if (a.is_retrans) {
          ++out.retrans_segments;
          if (a.is_timeout_retrans) {
            ++out.timeout_retrans;
          } else {
            ++out.fast_retrans;
          }
        }
      }
    } else {
      process_client_packet(p, a, out);
    }
    snapshot(a);
    // The packet-specific fields were filled before snapshot; snapshot only
    // fills the state fields.
#ifndef NDEBUG
    check_scoreboard();
#endif
  }

  // Transfer-level metrics.
  if (!annos_.empty()) {
    out.transmission_time = annos_.back().ts - annos_.front().ts;
  }
  for (const auto& s : segs_) out.unique_bytes += s.len();
  if (!out.rtt_samples_us.empty()) {
    double sum = 0;
    for (double r : out.rtt_samples_us) sum += r;
    out.avg_rtt_us = sum / static_cast<double>(out.rtt_samples_us.size());
  }
  if (rto_sample_count_ > 0) {
    out.avg_rto_on_ack_us =
        rto_sample_sum_us_ / static_cast<double>(rto_sample_count_);
  }
  if (!out.rto_at_timeout_us.empty()) {
    double sum = 0;
    for (double r : out.rto_at_timeout_us) sum += r;
    out.avg_rto_us = sum / static_cast<double>(out.rto_at_timeout_us.size());
  }

  detect_and_classify(out);

  // Capture quality: drop-rate estimate + deterministic confidence score.
  if (out.unique_bytes > 0) {
    quality_.est_drop_rate =
        std::min(1.0, static_cast<double>(quality_.gap_bytes) /
                          static_cast<double>(out.unique_bytes));
  }
  quality_.confidence = (1.0 - quality_.est_drop_rate) *
                        (quality_.mid_stream ? 0.5 : 1.0) *
                        (quality_.truncated_packets > 0 ? 0.9 : 1.0);
  out.capture = quality_;
  record_capture_quality(quality_);

  // Average speed over the *active* data phase: first payload transmission
  // to flow end, minus stalled time — i.e. the transfer rate the service
  // delivers while actually moving data.
  if (!segs_.empty() && !annos_.empty()) {
    const Duration data_phase = annos_.back().ts - segs_.front().first_tx;
    // Stalls that straddle the start of the data phase (e.g. a back-end
    // fetch ending in the first data packet) can push `active` to zero;
    // fall back to the raw data-phase rate then.
    Duration active = data_phase - out.stalled_time;
    if (active <= Duration::zero()) active = data_phase;
    if (active > Duration::zero()) {
      out.avg_speed_Bps = static_cast<double>(out.unique_bytes) / active.sec();
    }
  }
}

void FlowMimic::detect_and_classify(FlowAnalysis& out) {
  for (std::size_t i = 0; i + 1 < annos_.size(); ++i) {
    const PktAnno& prev = annos_[i];
    const Duration gap = annos_[i + 1].ts - prev.ts;
    if (!prev.established || !prev.has_srtt) continue;
    const Duration thresh = std::min(prev.srtt * config_.tau, prev.rto);
    if (gap <= thresh) continue;

    StallRecord rec = classify_stall(i, i + 1);
    if (rec.capture_suspect) ++quality_.suspect_stalls;
    out.stalled_time += rec.duration;
    record_stall(rec);
    out.stalls.push_back(rec);
  }
  if (out.transmission_time > Duration::zero()) {
    out.stall_ratio = out.stalled_time / out.transmission_time;
  }
}

StallRecord FlowMimic::classify_stall(std::size_t prev_idx,
                                      std::size_t cur_idx) const {
  const PktAnno& prev = annos_[prev_idx];
  const PktAnno& cur = annos_[cur_idx];
  StallRecord rec;
  rec.start = prev.ts;
  rec.end = cur.ts;
  rec.duration = rec.end - rec.start;
  rec.state_at_stall = prev.state;
  rec.in_flight = prev.in_flight;
  rec.cur_pkt_index = cur_idx;
  if (cur.seg_idx >= 0 && !segs_.empty()) {
    rec.rel_position = static_cast<double>(cur.seg_idx) /
                       static_cast<double>(segs_.size());
  }

  if (cur.server_data && cur.is_retrans) {
    if (cur.capture_suspect) {
      // The "retransmission" covers bytes whose original transmission the
      // capture never recorded; genuine loss and a capture drop of the
      // first copy are indistinguishable, so no cause can be asserted.
      rec.cause = StallCause::kUndetermined;
      rec.capture_suspect = true;
      return rec;
    }
    if (cur.is_timeout_retrans) {
      rec.cause = StallCause::kRetransmission;
      bool f_double = false;
      rec.retrans_cause = classify_retrans(prev, cur, rec.start, f_double);
      rec.f_double = f_double;
    } else {
      // A fast retransmit after a long gap: the network delayed the dupacks
      // or data; no timeout fired.
      rec.cause = StallCause::kPacketDelay;
    }
    return rec;
  }

  if (prev.rwnd_scaled == 0) {
    rec.cause = StallCause::kZeroWindow;
    return rec;
  }

  if (cur.is_request && prev.outstanding == 0) {
    rec.cause = StallCause::kClientIdle;
    return rec;
  }

  if (cur.server_data && !cur.is_retrans && cur.seg_idx >= 0 &&
      prev.outstanding == 0) {
    // (seg_idx can be -1 for malformed traces where a transmission below
    // snd_nxt matches no tracked segment — those fall through.)
    const SegMimic& seg = segs_[static_cast<std::size_t>(cur.seg_idx)];
    rec.cause = std::binary_search(head_seqs_.begin(), head_seqs_.end(),
                                   seg.start, net::SeqLess{})
                    ? StallCause::kDataUnavailable
                    : StallCause::kResourceConstraint;
    if (rec.cause == StallCause::kDataUnavailable && quality_.mid_stream &&
        seg.start == stream_head_) {
      // The stream head is synthetic (mid-stream capture seed), not an
      // observed request boundary — a back-end fetch cannot be asserted.
      rec.cause = StallCause::kUndetermined;
      rec.capture_suspect = true;
    }
    return rec;
  }

  if (prev.outstanding > 0) {
    // Something was in flight and eventually showed up without any
    // retransmission: the network delayed data or ACKs.
    rec.cause = StallCause::kPacketDelay;
    return rec;
  }

  rec.cause = StallCause::kUndetermined;
  return rec;
}

RetransCause FlowMimic::classify_retrans(const PktAnno& prev,
                                         const PktAnno& cur,
                                         TimePoint stall_start,
                                         bool& f_double) const {
  const SegMimic& seg = segs_[static_cast<std::size_t>(cur.seg_idx)];

  // 1. Double retransmission: the segment had already been retransmitted
  //    before this timeout retransmission (§4.1).
  if (cur.prior_retrans >= 1) {
    f_double = !cur.first_retrans_was_rto;
    return RetransCause::kDoubleRetrans;
  }

  // The tail / small-window / continuous-loss rules all describe *genuine
  // loss* scenarios. A DSACK for this segment proves the data arrived and
  // only the feedback path failed, so those rules do not apply (§4.3:
  // "segments are identified as not lost through DSACK").
  const bool genuinely_lost = !seg.dsacked;

  // 2. Tail retransmission: the segment sits at the end of its response
  //    (within dupthres segments of the response boundary), so the receiver
  //    cannot generate enough dupacks (§4.2).
  const net::Seq32 resp_end = response_end_for(seg);
  const std::uint32_t tail_zone =
      kDupthres * static_cast<std::uint32_t>(view_.mss);
  if (genuinely_lost && net::distance(seg.end, resp_end) < tail_zone) {
    return RetransCause::kTailRetrans;
  }

  // 3/4. Small in-flight: fast retransmit cannot trigger (< 4 MSS, §4.3);
  //      attribute to whichever of cwnd / rwnd was the limit.
  if (genuinely_lost && prev.in_flight < kSmallInflight) {
    const std::uint64_t cwnd_bytes =
        static_cast<std::uint64_t>(prev.cwnd_est) * view_.mss;
    if (cwnd_bytes <= prev.rwnd_scaled) return RetransCause::kSmallCwnd;
    return RetransCause::kSmallRwnd;
  }

  // 5. Continuous loss: every outstanding packet in the window was lost
  //    (>= 4 outstanding, §4.3). Look ahead: each segment outstanding and
  //    unSACKed at stall start was retransmitted later (or never delivered).
  std::uint32_t outstanding = 0;
  bool all_lost = true;
  for (const auto& s : segs_) {
    if (s.first_tx > stall_start) continue;     // sent after the stall
    if (s.acked_time <= stall_start) continue;  // already acked
    if (s.sacked_time <= stall_start) continue; // already sacked
    ++outstanding;
    const bool retransmitted_after = s.latest_tx() > stall_start;
    const bool never_delivered = s.acked_time == TimePoint::max() &&
                                 s.sacked_time == TimePoint::max();
    if (!retransmitted_after && !never_delivered) {
      all_lost = false;
    }
  }
  if (genuinely_lost && outstanding >= 4 && all_lost) {
    return RetransCause::kContinuousLoss;
  }

  // 6. ACK delay/loss: DSACK proves the data arrived — only the feedback
  //    path failed (§4.3).
  if (seg.dsacked) return RetransCause::kAckDelayLoss;

  return RetransCause::kUndetermined;
}

}  // namespace

Analyzer::Analyzer(AnalyzerConfig config) : config_(config) {
  config_.validate();
}

FlowAnalysis Analyzer::analyze_flow(const FlowView& view) const {
  FlowAnalysis out;
  FlowMimic mimic(view, config_);
  mimic.run(out);
  return out;
}

namespace {

/// The batch engine: analyzes every view in place and moves each result
/// out. The views are already in first-packet order.
AnalysisResult analyze_views(const Analyzer& analyzer,
                             const FlowViewSet& views) {
  AnalysisResult result;
  result.flows.reserve(views.size());
  for (const FlowView& view : views) {
    result.flows.push_back(analyzer.analyze_flow(view));
  }
  return result;
}

}  // namespace

AnalysisResult Analyzer::analyze(const net::PacketTrace& trace,
                                 const DemuxOptions& demux) const {
  return analyze_views(*this, demux_flow_views(trace, demux));
}

AnalysisResult Analyzer::analyze(const net::ChunkedTrace& trace,
                                 const DemuxOptions& demux) const {
  return analyze_views(*this, demux_flow_views(trace, demux));
}

}  // namespace tapo::analysis
