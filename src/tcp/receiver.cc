#include "tcp/receiver.h"

#include <algorithm>
#include <cassert>

#include "tcp/invariants.h"

namespace tapo::tcp {

TcpReceiver::TcpReceiver(sim::Simulator& sim, ReceiverConfig config,
                         SendAckFn send_ack)
    : sim_(sim),
      config_(config),
      send_ack_(std::move(send_ack)),
      delack_timer_(sim, [this] { on_delack_fire(); }) {
  buffer_cap_ = config_.init_rwnd_bytes;
}

void TcpReceiver::start(Seq32 rcv_nxt) {
  rcv_nxt_ = rcv_nxt;
  read_seq_ = rcv_nxt;
  tune_mark_ = rcv_nxt;
  last_drain_ = sim_.now();
}

std::uint32_t TcpReceiver::buffered_bytes() const {
  std::uint32_t b = net::distance(read_seq_, rcv_nxt_);
  for (const auto& blk : ooo_) b += blk.len();
  return b;
}

void TcpReceiver::drain_app_reads() {
  const TimePoint now = sim_.now();
  if (config_.app_read_Bps == 0) {
    read_seq_ = rcv_nxt_;
    last_drain_ = now;
    return;
  }
  if (now < paused_until_) {
    last_drain_ = now;
    return;
  }
  const TimePoint from = std::max(last_drain_, paused_until_);
  const double elapsed = now > from ? (now - from).sec() : 0.0;
  last_drain_ = now;
  const double readable = elapsed * static_cast<double>(config_.app_read_Bps) +
                          drain_remainder_;
  auto can_read = static_cast<std::uint64_t>(readable);
  drain_remainder_ = readable - static_cast<double>(can_read);
  const std::uint32_t inorder = net::distance(read_seq_, rcv_nxt_);
  can_read = std::min<std::uint64_t>(can_read, inorder);
  read_seq_ = net::advance(read_seq_, can_read);
  if (config_.pause_every_bytes > 0) {
    read_since_pause_ += can_read;
    if (read_since_pause_ >= config_.pause_every_bytes) {
      read_since_pause_ = 0;
      paused_until_ = now + config_.pause_duration;
    }
  }
}

void TcpReceiver::maybe_autotune() {
  if (!config_.window_autotune) return;
  // Dynamic right-sizing in the spirit of Linux DRS: once half a buffer's
  // worth of new data has arrived since the last adjustment, the transfer
  // is using the window — double the buffer (up to the cap) so the
  // advertised window stays ahead of the congestion window. Slow readers
  // still hit zero windows despite autotune, as in the wild.
  if (net::distance(tune_mark_, rcv_nxt_) >= buffer_cap_ / 2 &&
      buffer_cap_ < config_.max_rwnd_bytes) {
    tune_mark_ = rcv_nxt_;
    buffer_cap_ = std::min(buffer_cap_ * 2, config_.max_rwnd_bytes);
  }
}

std::uint32_t TcpReceiver::current_rwnd() {
  drain_app_reads();
  const std::uint32_t used = buffered_bytes();
  return used >= buffer_cap_ ? 0 : buffer_cap_ - used;
}

void TcpReceiver::add_ooo(Seq32 start, Seq32 end) {
  // ooo_ is sorted by start and its ranges neither overlap nor touch, so
  // their ends are sorted too. The new range merges with exactly the run
  // from the first range ending at or after its start to the last one
  // starting at or before its end.
  const auto first = std::partition_point(
      ooo_.begin(), ooo_.end(),
      [start](const net::SackBlock& b) { return net::before(b.end, start); });
  const auto last = std::partition_point(
      first, ooo_.end(),
      [end](const net::SackBlock& b) { return net::at_or_before(b.start, end); });
  const auto at = static_cast<std::size_t>(first - ooo_.begin());
  if (first == last) {
    ooo_.insert(first, net::SackBlock{start, end});
  } else {
    first->start = net::seq_min(first->start, start);
    first->end = net::seq_max((last - 1)->end, end);
    ooo_.erase(first + 1, last);
  }

  // Reporting order: the block containing the new data goes first.
  recent_sacks_.clear();
  recent_sacks_.push_back(ooo_[at]);
  recent_sacks_.insert(recent_sacks_.end(), ooo_.begin(), ooo_.begin() + at);
  recent_sacks_.insert(recent_sacks_.end(), ooo_.begin() + at + 1, ooo_.end());
}

bool TcpReceiver::is_duplicate(Seq32 start, Seq32 end) const {
  if (net::at_or_before(end, rcv_nxt_)) return true;
  for (const auto& b : ooo_) {
    if (net::at_or_after(start, b.start) && net::at_or_before(end, b.end)) {
      return true;
    }
  }
  return false;
}

void TcpReceiver::on_data(Seq32 seq, std::uint32_t len) {
  const Seq32 prev_rcv_nxt = rcv_nxt_;
  on_data_impl(seq, len);
  invariants::on_receiver_data(*this, prev_rcv_nxt, sim_.now());
}

void TcpReceiver::on_data_impl(Seq32 seq, std::uint32_t len) {
  assert(len > 0);
  const Seq32 end = seq + len;
  drain_app_reads();

  std::optional<net::SackBlock> dsack;
  if (is_duplicate(seq, end)) {
    // Spurious retransmission: report via DSACK (RFC 2883) and ack now.
    if (config_.dsack_enabled) dsack = net::SackBlock{seq, end};
    ++dsacks_sent_;
    emit_ack(dsack);
    return;
  }

  if (net::at_or_before(seq, rcv_nxt_)) {
    // In-order (possibly partially duplicate) data.
    const bool had_holes = !ooo_.empty();
    rcv_nxt_ = net::seq_max(rcv_nxt_, end);
    // Absorb any out-of-order blocks now covered.
    while (!ooo_.empty() && net::at_or_before(ooo_.front().start, rcv_nxt_)) {
      rcv_nxt_ = net::seq_max(rcv_nxt_, ooo_.front().end);
      ooo_.erase(ooo_.begin());
    }
    if (had_holes) {
      // RFC 5681: ack immediately when a segment (partially) fills a gap,
      // with SACK blocks for whatever holes remain.
      recent_sacks_.assign(ooo_.begin(), ooo_.end());
      maybe_autotune();
      emit_ack(std::nullopt);
      return;
    }
    if (!recent_sacks_.empty()) recent_sacks_.clear();
    ++unacked_segments_;
    if (unacked_segments_ >= config_.ack_every) {
      emit_ack(std::nullopt);
    } else {
      arm_delack();
    }
    maybe_autotune();
    return;
  }

  // Out-of-order data: SACK it and ack immediately (dupack).
  add_ooo(seq, end);
  maybe_autotune();
  emit_ack(std::nullopt);
}

void TcpReceiver::on_fin(Seq32 seq) {
  drain_app_reads();
  if (seq == rcv_nxt_ && ooo_.empty()) {
    rcv_nxt_ = seq + 1;
    fin_seen_ = true;
  }
  emit_ack(std::nullopt);
}

void TcpReceiver::emit_ack(std::optional<net::SackBlock> dsack) {
  delack_timer_.cancel();
  unacked_segments_ = 0;

  AckSpec spec;
  spec.ack = rcv_nxt_;
  spec.rwnd_bytes = current_rwnd();
  // Receiver-side SWS avoidance (RFC 1122 4.2.3.3): advertise zero rather
  // than a sliver smaller than min(MSS, cap/2). This is what turns a slow
  // reader into the zero-window episodes of Table 3/4.
  if (spec.rwnd_bytes <
      std::min<std::uint32_t>(config_.mss, buffer_cap_ / 2)) {
    spec.rwnd_bytes = 0;
  }
  if (config_.sack_enabled) {
    if (dsack) spec.sack_blocks.push_back(*dsack);
    for (const auto& b : recent_sacks_) {
      // push_back drops the block (returns false) once the 4-slot wire
      // bound is reached.
      if (!spec.sack_blocks.push_back(b)) break;
    }
  }
  if (spec.rwnd_bytes == 0) {
    ++zero_window_acks_;
    advertised_zero_ = true;
    schedule_window_update_check();
  } else {
    advertised_zero_ = false;
  }
  invariants::on_ack_spec(*this, spec, sim_.now());
  send_ack_(spec);
}

void TcpReceiver::arm_delack() {
  if (!delack_timer_.armed()) delack_timer_.arm(config_.delack_timeout);
}

void TcpReceiver::on_delack_fire() { emit_ack(std::nullopt); }

void TcpReceiver::schedule_window_update_check() {
  if (window_update_pending_ || config_.app_read_Bps == 0) return;
  window_update_pending_ = true;
  // Re-check once the reader has had time to free at least one MSS; keep
  // polling while the window stays shut (reader pauses can hold it shut
  // for a long time).
  const double secs = static_cast<double>(config_.mss) /
                      static_cast<double>(config_.app_read_Bps);
  sim_.schedule(Duration::seconds(std::max(secs, 0.001)), [this] {
    window_update_pending_ = false;
    if (!advertised_zero_) return;
    if (current_rwnd() >= config_.mss) {
      emit_ack(std::nullopt);  // window update
    } else {
      schedule_window_update_check();
    }
  });
}

}  // namespace tapo::tcp
