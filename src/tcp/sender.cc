#include "tcp/sender.h"

#include <algorithm>
#include <cassert>

#include "tcp/invariants.h"
#include "telemetry/telemetry.h"

namespace tapo::tcp {
namespace {

/// TLP probe timeout floor, and the worst-case delayed-ACK allowance added
/// when exactly one packet is in flight (the TLP draft's WCDelAckT).
constexpr Duration kTlpMinPto = Duration::millis(10);
constexpr Duration kTlpDelackAllowance = Duration::millis(200);

/// Shortest gap between paced transmissions.
constexpr Duration kPacingMinGap = Duration::micros(100);

}  // namespace

using telemetry::EventKind;

void TcpSender::note_segment(const SegmentOut& out) {
  TAPO_TRACE(EventKind::kSegmentTx, sim_.now().us(), out.seq.raw(),
             static_cast<std::uint64_t>(out.len) |
                 (out.retransmission ? 1ull << 63 : 0));
  if (telemetry::metrics_enabled()) {
    static auto& segments =
        telemetry::Registry::instance().counter("tapo_tcp_segments_total");
    segments.add(1);
    if (out.retransmission) {
      static auto& retrans = telemetry::Registry::instance().counter(
          "tapo_tcp_retransmissions_total");
      retrans.add(1);
    }
  }
}

void TcpSender::trace_window() {
  if (!telemetry::tracing_enabled()) return;
  if (cwnd_ != traced_cwnd_ || ssthresh_ != traced_ssthresh_) {
    traced_cwnd_ = cwnd_;
    traced_ssthresh_ = ssthresh_;
    TAPO_TRACE(EventKind::kCwnd, sim_.now().us(), cwnd_, ssthresh_);
  }
  if (state_ != traced_state_) {
    traced_state_ = state_;
    TAPO_TRACE(EventKind::kCaState, sim_.now().us(),
               static_cast<std::uint64_t>(state_), 0);
  }
}

TcpSender::TcpSender(sim::Simulator& sim, SenderConfig config, SendSegmentFn send)
    : sim_(sim),
      config_(config),
      send_(std::move(send)),
      cc_(make_congestion_control(config.cc)),
      timer_(sim, [this] { on_timer_fire(); }),
      pace_timer_(sim, [this] {
        try_send();
        rearm_timer();
      }) {
  cwnd_ = config_.init_cwnd;
}

void TcpSender::start(Seq32 isn) {
  isn_ = isn;
  snd_una_ = isn;
  snd_nxt_ = isn;
  write_seq_ = isn;
  started_ = true;
}

void TcpSender::app_write(std::uint64_t bytes) {
  assert(started_ && !fin_pending_);
  write_seq_ = net::advance(write_seq_, bytes);
  try_send();
  rearm_timer();
}

void TcpSender::app_close() {
  fin_pending_ = true;
  try_send();
  rearm_timer();
  check_done();
}

std::uint32_t TcpSender::send_window_segments() const {
  // Limited transmit (RFC 3042): the first two dupacks each let one new
  // segment out beyond cwnd.
  std::uint32_t quota = 0;
  if (state_ == CaState::kDisorder) {
    quota = std::min<std::uint32_t>(dupacks_, 2);
  }
  return cwnd_ + quota;
}

bool TcpSender::can_send_new() const {
  const bool data_left = net::before(snd_nxt_, write_seq_);
  const bool fin_left = fin_pending_ && !fin_sent_ && snd_nxt_ == write_seq_;
  if (!data_left && !fin_left) return false;
  if (board_.in_flight() >= send_window_segments()) return false;
  // Receive window: need room for at least one new byte (FIN needs none in
  // practice, but we keep it symmetric and let the persist path handle 0).
  // Wrap-safe: compare the bytes already in the window against rwnd rather
  // than materializing the (wrapping) right window edge.
  if (data_left && net::distance(snd_una_, snd_nxt_) >= rwnd_bytes_) {
    return false;
  }
  return true;
}

bool TcpSender::send_new_segment() {
  if (net::before(snd_nxt_, write_seq_)) {
    // Window room left after the bytes already in flight ([una, nxt)).
    const std::uint32_t in_window = net::distance(snd_una_, snd_nxt_);
    const std::uint32_t wnd_room =
        rwnd_bytes_ > in_window ? rwnd_bytes_ - in_window : 0;
    std::uint32_t len =
        std::min(config_.mss, net::distance(snd_nxt_, write_seq_));
    len = std::min(len, wnd_room);
    if (len == 0) return false;
    board_.on_transmit(snd_nxt_, snd_nxt_ + len, sim_.now());
    SegmentOut out;
    out.seq = snd_nxt_;
    out.len = len;
    snd_nxt_ += len;
    ++stats_.segments_sent;
    stats_.bytes_sent += len;
    note_segment(out);
    send_(out);
    return true;
  }
  if (fin_pending_ && !fin_sent_ && snd_nxt_ == write_seq_) {
    fin_seq_ = snd_nxt_;
    board_.on_transmit(snd_nxt_, snd_nxt_ + 1, sim_.now());
    snd_nxt_ += 1;
    fin_sent_ = true;
    SegmentOut out;
    out.seq = fin_seq_;
    out.len = 0;
    out.fin = true;
    note_segment(out);
    send_(out);
    return true;
  }
  return false;
}

void TcpSender::retransmit(Seq32 seq, bool rto_retrans) {
  const SegmentState* seg = board_.on_retransmit(seq, sim_.now(), rto_retrans);
  if (seg == nullptr) return;
  invariants::on_retransmit(*this, seg->start, sim_.now());
  const bool is_fin = fin_sent_ && seg->start == fin_seq_;
  SegmentOut out;
  out.seq = seg->start;
  out.len = is_fin ? 0 : seg->len();
  out.fin = is_fin;
  out.retransmission = true;
  ++stats_.segments_sent;
  ++stats_.retransmissions;
  stats_.bytes_sent += out.len;
  if (!rto_retrans && state_ == CaState::kRecovery) ++stats_.fast_retransmits;
  note_segment(out);
  send_(out);
}

void TcpSender::retransmit_pending_lost() {
  while (board_.in_flight() < cwnd_ || force_one_retransmit_) {
    const auto seq = board_.next_lost_to_retransmit();
    if (!seq) break;
    force_one_retransmit_ = false;
    retransmit(*seq, /*rto_retrans=*/state_ == CaState::kLoss);
  }
  force_one_retransmit_ = false;
}

Duration TcpSender::pacing_interval() const {
  const Duration gap = rto_.srtt() / std::max<std::uint32_t>(cwnd_, 1);
  return std::max(gap, kPacingMinGap);
}

void TcpSender::try_send() {
  if (!started_ || finished_) return;
  // Retransmissions are never paced: recovery latency matters more than
  // burst smoothing, and there is at most a window of them.
  retransmit_pending_lost();
  const bool pace = config_.pacing && rto_.has_sample();
  bool pacing_blocked = false;
  while (can_send_new()) {
    if (pace && sim_.now() < pace_next_) {
      pace_timer_.arm(pace_next_ - sim_.now());
      pacing_blocked = true;
      break;
    }
    if (!send_new_segment()) break;
    if (pace) pace_next_ = sim_.now() + pacing_interval();
  }
  const bool data_left =
      net::before(snd_nxt_, write_seq_) || (fin_pending_ && !fin_sent_);
  // Pacing-gated rounds still count as window-limited for cwnd growth —
  // the application is not the bottleneck, the pacer is.
  cwnd_limited_ =
      data_left &&
      (pacing_blocked || board_.in_flight() >= send_window_segments());
}

void TcpSender::enter_recovery() {
  state_ = CaState::kRecovery;
  high_seq_ = snd_nxt_;
  ssthresh_ = cc_->ssthresh(cwnd_);
  cc_->on_loss_event(sim_.now());
  prr_ack_counter_ = 0;
  force_one_retransmit_ = true;
}

void TcpSender::maybe_complete_recovery() {
  if (net::before(snd_una_, high_seq_)) return;
  if (state_ == CaState::kRecovery) {
    // tcp_complete_cwr: settle at ssthresh.
    cwnd_ = std::min(cwnd_, std::max<std::uint32_t>(ssthresh_, 2));
  }
  state_ = CaState::kOpen;
  dupacks_ = 0;
  undo_armed_ = false;
  board_.clear_lost_marks();
}

void TcpSender::on_ack(Seq32 ack, std::uint32_t rwnd_bytes,
                       std::span<const net::SackBlock> sack_blocks,
                       std::optional<net::SackBlock> dsack, bool carries_data) {
  if (!started_ || finished_) return;
  TAPO_TRACE(EventKind::kAckRx, sim_.now().us(), ack.raw(), rwnd_bytes);
  const bool was_cwnd_limited = cwnd_limited_;
  const std::uint32_t prev_rwnd = rwnd_bytes_;
  rwnd_bytes_ = rwnd_bytes;
  if (rwnd_bytes == 0 && !zero_window_) {
    zero_window_ = true;
    zero_window_seq_ = snd_nxt_;
    ++stats_.zero_window_episodes;
  } else if (rwnd_bytes > 0 && zero_window_) {
    zero_window_ = false;
    persist_interval_ = Duration::zero();
  }

  if (dsack) {
    ++stats_.dsacks_received;
    // A DSACK proves a retransmission was spurious: the network reordered
    // or delayed rather than dropped. Grow dupthres so future reordering of
    // that extent no longer triggers fast retransmit (§3.1).
    if (dupthres_ < kMaxDupthres) ++dupthres_;
    maybe_undo_spurious_rto(dsack);
    // Adaptive S-RTO verdict: the DSACK covers a recently probed range ->
    // that probe was unnecessary; stretch the probe timer.
    if (config_.srto.adaptive) {
      for (auto it = probed_ranges_.begin(); it != probed_ranges_.end(); ++it) {
        if (net::before(dsack->start, it->end) &&
            net::after(dsack->end, it->start)) {
          ++stats_.srto_spurious_probes;
          srto_backoff_level_ =
              std::min(srto_backoff_level_ + 1, kSrtoMaxBackoffLevel);
          probed_ranges_.erase(it);
          break;
        }
      }
    }
  }

  // SACK-time RTT sampling (tcp_sacktag_write_queue does the same): a SACK
  // pinpoints the delivery time of an out-of-order segment.
  std::uint32_t newly_sacked = 0;
  {
    TimePoint newest;
    bool have = false;
    newly_sacked = board_.apply_sack(
        sack_blocks, snd_una_, [&](const SegmentState& s) {
          if (!s.was_retransmitted() && (!have || s.first_sent > newest)) {
            newest = s.first_sent;
            have = true;
          }
        });
    if (have) rto_.sample(sim_.now() - newest);
  }
  const bool ack_advanced = net::after(ack, snd_una_);
  std::uint32_t n_acked = 0;

  if (ack_advanced) {
    // RTT sample: Karn's rule (skip retransmitted segments), skip segments
    // already SACKed (they were delivered long before this cumulative ACK),
    // and take the most recently sent candidate.
    TimePoint newest;
    bool have = false;
    n_acked = board_.ack_to(ack, [&](const SegmentState& s) {
      if (!s.was_retransmitted() && !s.sacked &&
          (!have || s.first_sent > newest)) {
        newest = s.first_sent;
        have = true;
      }
    });
    if (have) rto_.sample(sim_.now() - newest);
    snd_una_ = ack;
    dupacks_ = 0;
    tlp_probe_outstanding_ = false;
    // Adaptive S-RTO verdict: a probed range acked without a DSACK means
    // the probe did its job; relax the probe timer.
    if (config_.srto.adaptive) {
      while (!probed_ranges_.empty() &&
             net::at_or_before(probed_ranges_.front().end, ack)) {
        srto_backoff_level_ = std::max(srto_backoff_level_ - 1, 0);
        probed_ranges_.pop_front();
      }
    }
  } else if (!carries_data && board_.packets_out() > 0 &&
             (newly_sacked > 0 || rwnd_bytes == prev_rwnd)) {
    ++dupacks_;
  }

  switch (state_) {
    case CaState::kOpen:
    case CaState::kDisorder: {
      state_ = (dupacks_ > 0 || board_.sacked_out() > 0) ? CaState::kDisorder
                                                         : CaState::kOpen;
      const std::uint32_t newly_lost =
          config_.fack ? board_.mark_lost_by_fack(dupthres_, config_.mss)
                       : board_.mark_lost_by_sack(dupthres_);
      bool enter = newly_lost > 0 ||
                   (dupacks_ >= dupthres_ && board_.packets_out() > 0);
      if (!enter && config_.early_retransmit && board_.packets_out() > 0 &&
          board_.packets_out() < 4 && net::at_or_after(snd_nxt_, write_seq_)) {
        // RFC 5827: with < 4 outstanding and no new data, lower the dup
        // threshold to packets_out - 1 (min 1).
        const std::uint32_t er = std::max<std::uint32_t>(
            1, board_.packets_out() > 0 ? board_.packets_out() - 1 : 1);
        enter = dupacks_ >= er || board_.sacked_out() >= er;
      }
      if (enter) {
        if (board_.lost_out() == 0) board_.mark_head_lost();
        enter_recovery();
      }
      if ((state_ == CaState::kOpen || state_ == CaState::kDisorder) &&
          ack_advanced && was_cwnd_limited) {
        cwnd_ = cc_->on_ack(cwnd_, ssthresh_, n_acked, sim_.now(), rto_.srtt());
      }
      break;
    }
    case CaState::kRecovery: {
      if (config_.fack) {
        board_.mark_lost_by_fack(dupthres_, config_.mss);
      } else {
        board_.mark_lost_by_sack(dupthres_);
      }
      if (ack_advanced && net::before(snd_una_, high_seq_) &&
          board_.packets_out() > 0) {
        // NewReno partial ACK: the next unSACKed hole is lost, and its
        // retransmission goes out immediately.
        if (board_.lost_out() == 0) board_.mark_head_lost();
        force_one_retransmit_ = true;
      }
      // Rate halving: shave one segment every second ACK until ssthresh
      // ("reduces cwnd by one segment for each second incoming ACK, until
      // cwnd is halved", §3.1).
      ++prr_ack_counter_;
      if (prr_ack_counter_ % 2 == 0 && cwnd_ > ssthresh_) --cwnd_;
      maybe_complete_recovery();
      break;
    }
    case CaState::kLoss: {
      if (ack_advanced) {
        cwnd_ = cc_->on_ack(cwnd_, ssthresh_, n_acked, sim_.now(), rto_.srtt());
      }
      maybe_complete_recovery();
      break;
    }
  }

  trace_window();
  try_send();
  rearm_timer();
  invariants::on_sender_event(*this, sim_.now());
  check_done();
}

void TcpSender::maybe_undo_spurious_rto(
    const std::optional<net::SackBlock>& dsack) {
  if (!config_.spurious_rto_undo || !undo_armed_ || !dsack) return;
  if (state_ != CaState::kLoss) return;
  // The DSACK must report the segment the RTO retransmitted: the original
  // made it after all, so the collapse to cwnd=1 was unnecessary.
  if (net::after(dsack->start, undo_seq_) ||
      net::at_or_before(dsack->end, undo_seq_)) {
    return;
  }
  undo_armed_ = false;
  ++stats_.spurious_rto_undos;
  cwnd_ = undo_cwnd_;
  ssthresh_ = undo_ssthresh_;
  state_ = CaState::kOpen;
  dupacks_ = 0;
  board_.clear_lost_marks();
}

Duration TcpSender::tlp_pto() const {
  if (!rto_.has_sample()) return rto_.rto();
  Duration pto = rto_.srtt() * 2;
  if (board_.packets_out() == 1) {
    pto = std::max(pto, rto_.srtt() * 1.5 + kTlpDelackAllowance);
  }
  pto = std::max(pto, kTlpMinPto);
  return std::min(pto, rto_.rto());
}

void TcpSender::rearm_timer() {
  rearm_timer_impl();
  invariants::on_timer_rearmed(*this, sim_.now());
}

void TcpSender::rearm_timer_impl() {
  if (finished_) {
    timer_.cancel();
    timer_mode_ = TimerMode::kNone;
    return;
  }
  // Persist mode: the peer window is closed and everything sent *before*
  // the episode is acked — only window probes (if any) are outstanding.
  // They are governed by the doubling persist timer, not the RTO, so a
  // long-closed window never collapses cwnd.
  // An empty scoreboard trivially satisfies the "everything pre-episode is
  // acked" condition; checking it explicitly also sidesteps snd_una()'s
  // meaningless default before the first transmission (a zero window can
  // arrive that early when a hostile path rewrites the handshake ACK).
  const bool persist_mode =
      zero_window_ &&
      (net::before(snd_nxt_, write_seq_) || (fin_pending_ && !fin_sent_) ||
       board_.packets_out() > 0) &&
      (board_.empty() ||
       net::at_or_after(board_.snd_una(), zero_window_seq_));
  if (persist_mode) {
    if (timer_mode_ != TimerMode::kPersist || !timer_.armed()) {
      persist_interval_ = persist_interval_ == Duration::zero()
                              ? rto_.rto()
                              : std::min(persist_interval_ * 2,
                                         Duration::seconds(60.0));
      timer_mode_ = TimerMode::kPersist;
      timer_.arm(persist_interval_);
    }
    return;
  }

  if (board_.packets_out() == 0) {
    timer_.cancel();
    timer_mode_ = TimerMode::kNone;
    return;
  }

  // The head (first unSACKed) segment is both the RTO base time and the
  // S-RTO arming condition key.
  const SegmentState* head = board_.first_unsacked();

  // S-RTO (Algorithm 1, set_srto): probe timer 2*RTT when the head packet
  // has not been retransmitted by the native RTO and packets_out < T1.
  if (config_.recovery == RecoveryMechanism::kSrto && head != nullptr &&
      !head->rto_retransmitted && board_.packets_out() < config_.srto.t1 &&
      rto_.has_sample()) {
    double mult = config_.srto.probe_rtt_mult;
    if (config_.srto.adaptive) {
      mult *= 1.0 + kSrtoBackoffStep * static_cast<double>(srto_backoff_level_);
    }
    const Duration probe = rto_.srtt() * mult;
    if (probe < rto_.rto()) {
      invariants::on_srto_armed(*this, probe, sim_.now());
      timer_mode_ = TimerMode::kSrtoProbe;
      timer_.arm(probe);
      return;
    }
  }

  // TLP: only in Open state, one probe per episode.
  if (config_.recovery == RecoveryMechanism::kTlp &&
      state_ == CaState::kOpen && !tlp_probe_outstanding_ &&
      rto_.has_sample()) {
    const Duration pto = tlp_pto();
    if (pto < rto_.rto()) {
      timer_mode_ = TimerMode::kTlpProbe;
      timer_.arm(pto);
      return;
    }
  }

  // Native RTO, based on the head segment's last transmission time
  // (tcp_rearm_rto): the timer covers the oldest outstanding data.
  Duration delay = rto_.rto();
  if (head != nullptr) {
    const Duration elapsed = sim_.now() - head->last_sent;
    delay = std::max(delay - elapsed, Duration::millis(1));
  }
  timer_mode_ = TimerMode::kRto;
  timer_.arm(delay);
}

void TcpSender::on_timer_fire() {
  const TimerMode mode = timer_mode_;
  timer_mode_ = TimerMode::kNone;
  switch (mode) {
    case TimerMode::kRto: fire_rto(); break;
    case TimerMode::kTlpProbe: fire_tlp(); break;
    case TimerMode::kSrtoProbe: fire_srto(); break;
    case TimerMode::kPersist: fire_persist(); break;
    case TimerMode::kNone: break;
  }
}

void TcpSender::fire_rto() {
  if (board_.packets_out() == 0) {
    rearm_timer();
    return;
  }
  ++stats_.rto_fires;
  TAPO_TRACE(EventKind::kRtoFire, sim_.now().us(), rto_.rto().us(),
             board_.packets_out());
  if (telemetry::metrics_enabled()) {
    static auto& rto_fires =
        telemetry::Registry::instance().counter("tapo_tcp_rto_fires_total");
    rto_fires.add(1);
  }
  if (state_ != CaState::kLoss) {
    // Save the pre-collapse window for a potential spurious-RTO undo.
    if (config_.spurious_rto_undo) {
      undo_cwnd_ = cwnd_;
      undo_ssthresh_ = ssthresh_;
      undo_seq_ = board_.snd_una();
      undo_armed_ = true;
    }
    ssthresh_ = cc_->ssthresh(cwnd_);
    cc_->on_loss_event(sim_.now());
  }
  state_ = CaState::kLoss;
  high_seq_ = snd_nxt_;
  board_.mark_all_lost();
  dupacks_ = 0;
  cwnd_ = 1;
  const Duration pre_backoff_rto = rto_.rto();
  rto_.backoff();
  invariants::on_rto_backoff(*this, pre_backoff_rto, sim_.now());
  trace_window();
  retransmit_pending_lost();  // cwnd 1 -> retransmits exactly the head
  timer_mode_ = TimerMode::kRto;
  timer_.arm(rto_.rto());
  invariants::on_sender_event(*this, sim_.now());
}

void TcpSender::fire_tlp() {
  if (board_.packets_out() == 0) {
    rearm_timer();
    return;
  }
  ++stats_.tlp_probes;
  TAPO_TRACE(EventKind::kTlpProbe, sim_.now().us(), snd_nxt_.raw(),
             board_.packets_out());
  if (telemetry::metrics_enabled()) {
    static auto& tlp_probes =
        telemetry::Registry::instance().counter("tapo_tcp_tlp_probes_total");
    tlp_probes.add(1);
  }
  tlp_probe_outstanding_ = true;
  // Probe with new data when possible, else re-send the tail segment.
  const bool sent_new = can_send_new() && send_new_segment();
  if (!sent_new) {
    if (const SegmentState* tail = board_.last_unsacked()) {
      retransmit(tail->start, /*rto_retrans=*/false);
    }
  }
  timer_mode_ = TimerMode::kRto;
  timer_.arm(rto_.rto());
}

void TcpSender::fire_srto() {
  if (board_.packets_out() == 0) {
    rearm_timer();
    return;
  }
  // Algorithm 1, trigger_srto: retransmit the first unacknowledged packet;
  // conditionally halve cwnd; enter Recovery; fall back to the native RTO.
  ++stats_.srto_probes;
  TAPO_TRACE(EventKind::kSrtoProbe, sim_.now().us(), snd_una_.raw(),
             board_.packets_out());
  if (telemetry::metrics_enabled()) {
    static auto& srto_probes =
        telemetry::Registry::instance().counter("tapo_tcp_srto_probes_total");
    srto_probes.add(1);
  }
  const SegmentState* head = board_.first_unsacked();
  if (head != nullptr) {
    if (config_.srto.adaptive) {
      probed_ranges_.push_back({head->start, head->end});
      if (probed_ranges_.size() > 16) probed_ranges_.pop_front();
    }
    retransmit(head->start, /*rto_retrans=*/false);
  }
  const std::uint32_t cwnd_before = cwnd_;
  const CaState state_before = state_;
  if (cwnd_ > config_.srto.t2 && state_ != CaState::kRecovery) {
    cwnd_ = std::max<std::uint32_t>(cwnd_ / 2, 1);
    ssthresh_ = std::max<std::uint32_t>(cwnd_, 2);
  }
  if (state_ != CaState::kRecovery) {
    state_ = CaState::kRecovery;
    high_seq_ = snd_nxt_;
    prr_ack_counter_ = 0;
  }
  invariants::on_srto_fired(*this, cwnd_before, state_before, sim_.now());
  trace_window();
  timer_mode_ = TimerMode::kRto;
  timer_.arm(rto_.rto());
  invariants::on_sender_event(*this, sim_.now());
}

void TcpSender::fire_persist() {
  ++stats_.persist_probes;
  TAPO_TRACE(EventKind::kPersistProbe, sim_.now().us(), snd_nxt_.raw(),
             rwnd_bytes_);
  if (telemetry::metrics_enabled()) {
    static auto& persist_probes = telemetry::Registry::instance().counter(
        "tapo_tcp_persist_probes_total");
    persist_probes.add(1);
  }
  // Zero-window probe: one byte of new data keeps the connection alive and
  // solicits the receiver's current window. If the previous probe byte is
  // still unacked, re-send it instead of consuming more sequence space.
  if (board_.packets_out() > 0) {
    if (const SegmentState* head = board_.head()) {
      retransmit(head->start, /*rto_retrans=*/false);
    }
  } else if (net::before(snd_nxt_, write_seq_)) {
    board_.on_transmit(snd_nxt_, snd_nxt_ + 1, sim_.now());
    SegmentOut out;
    out.seq = snd_nxt_;
    out.len = 1;
    snd_nxt_ += 1;
    ++stats_.segments_sent;
    stats_.bytes_sent += 1;
    note_segment(out);
    send_(out);
  }
  rearm_timer();
}

void TcpSender::check_done() {
  if (finished_ || !fin_pending_ || !fin_sent_) return;
  if (net::at_or_after(snd_una_, fin_seq_ + 1)) {
    finished_ = true;
    timer_.cancel();
    timer_mode_ = TimerMode::kNone;
    if (done_) done_();
  }
}

}  // namespace tapo::tcp
