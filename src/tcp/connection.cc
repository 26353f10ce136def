#include "tcp/connection.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace tapo::tcp {
namespace {

constexpr std::uint16_t kMaxWindowField = 65535;

/// Client SYN / request retransmission timer (the stop-and-wait app layer
/// backs it off up to 64x), and the retries before the client gives up.
/// 3 s is 2.6.32's TCP_TIMEOUT_INIT.
constexpr Duration kClientRto = Duration::seconds(3.0);
constexpr int kMaxClientRetries = 8;

/// RFC 2883 DSACK heuristic: the first SACK block reports a duplicate when
/// it lies below the cumulative ACK or inside the second block.
std::optional<net::SackBlock> extract_dsack(const net::TcpHeader& tcp) {
  if (tcp.sack_blocks.empty()) return std::nullopt;
  const auto& b0 = tcp.sack_blocks[0];
  if (net::at_or_before(b0.end, tcp.ack)) return b0;
  if (tcp.sack_blocks.size() >= 2) {
    const auto& b1 = tcp.sack_blocks[1];
    if (net::at_or_after(b0.start, b1.start) &&
        net::at_or_before(b0.end, b1.end)) {
      return b0;
    }
  }
  return std::nullopt;
}

}  // namespace

Connection::Connection(sim::Simulator& sim, sim::Link& down, sim::Link& up,
                       ConnectionConfig config, net::PacketTrace* trace)
    : sim_(sim),
      down_(down),
      up_(up),
      config_(std::move(config)),
      capture_(trace != nullptr ? net::TraceBuilder(*trace)
                                : net::TraceBuilder()),
      client_retx_(sim, [this] { client_retx_fire(); }) {
  client_isn_ = config_.client_isn;
  server_isn_ = config_.server_isn;
  client_wscale_ =
      config_.receiver.max_rwnd_bytes > kMaxWindowField ? 7 : 0;

  sender_ = std::make_unique<TcpSender>(
      sim_, config_.sender,
      [this](const TcpSender::SegmentOut& seg) { server_emit_segment(seg); });
  sender_->set_done_callback([this] {
    metrics_.finished = sim_.now();
    metrics_.completed = true;
    done_ = true;
  });

  receiver_ = std::make_unique<TcpReceiver>(
      sim_, config_.receiver,
      [this](const TcpReceiver::AckSpec& spec) { client_emit_ack(spec); });

  down_.set_deliver(
      [this](const net::CapturedPacket& pkt) { client_on_packet(pkt); });
  up_.set_deliver(
      [this](const net::CapturedPacket& pkt) { server_on_packet(pkt); });
}

Connection::~Connection() = default;

net::CapturedPacket Connection::make_packet(bool from_client) const {
  net::CapturedPacket pkt;
  pkt.key = from_client ? config_.client_to_server
                        : config_.client_to_server.reversed();
  pkt.timestamp = sim_.now();
  pkt.tcp.src_port = pkt.key.src_port;
  pkt.tcp.dst_port = pkt.key.dst_port;
  return pkt;
}

void Connection::capture_at_server(const net::CapturedPacket& pkt) {
  if (capture_.attached()) {
    // Write straight into the capture backend; only the capture timestamp
    // differs from the wire packet.
    net::CapturedPacket& slot = capture_.begin_packet();
    slot = pkt;
    slot.timestamp = sim_.now();
  }
}

// ---------------------------------------------------------------- client --

void Connection::start() {
  assert(!config_.requests.empty());
  metrics_.requests.resize(config_.requests.size());
  client_snd_nxt_ = client_isn_ + 1;
  metrics_.syn_sent = sim_.now();
  client_send_syn();
}

void Connection::client_send_syn() {
  client_state_ = ClientState::kSynSent;
  net::CapturedPacket pkt = make_packet(/*from_client=*/true);
  pkt.tcp.seq = client_isn_;
  pkt.tcp.flags.syn = true;
  pkt.tcp.window = static_cast<std::uint16_t>(std::min<std::uint32_t>(
      config_.receiver.init_rwnd_bytes, kMaxWindowField));
  pkt.tcp.mss = static_cast<std::uint16_t>(config_.receiver.mss);
  pkt.tcp.sack_permitted = true;
  if (client_wscale_ > 0) pkt.tcp.window_scale = client_wscale_;
  up_.send(pkt);
  client_retx_.arm(kClientRto * static_cast<std::int64_t>(1 << std::min(client_retries_, 6)));
}

void Connection::client_emit_ack(const TcpReceiver::AckSpec& spec) {
  net::CapturedPacket pkt = make_packet(/*from_client=*/true);
  pkt.tcp.seq = client_snd_nxt_;
  pkt.tcp.ack = spec.ack;
  pkt.tcp.flags.ack = true;
  const std::uint32_t scaled =
      std::min<std::uint32_t>(spec.rwnd_bytes >> client_wscale_, kMaxWindowField);
  pkt.tcp.window = static_cast<std::uint16_t>(scaled);
  pkt.tcp.sack_blocks = spec.sack_blocks;
  up_.send(pkt);
}

void Connection::client_send_request(std::size_t idx) {
  assert(idx < config_.requests.size());
  const RequestSpec& spec = config_.requests[idx];
  net::CapturedPacket pkt = make_packet(/*from_client=*/true);
  pkt.tcp.seq = client_snd_nxt_;
  pkt.tcp.ack = receiver_->rcv_nxt();
  pkt.tcp.flags.ack = true;
  pkt.tcp.flags.psh = true;
  pkt.payload_len = spec.request_bytes;
  const std::uint32_t scaled = std::min<std::uint32_t>(
      receiver_->current_rwnd() >> client_wscale_, kMaxWindowField);
  pkt.tcp.window = static_cast<std::uint16_t>(scaled);

  if (next_request_ == idx) {
    // First transmission (not a retry).
    metrics_.requests[idx].client_sent = sim_.now();
    metrics_.requests[idx].response_bytes = spec.response_bytes;
    client_req_end_ = client_snd_nxt_ + spec.request_bytes;
    client_snd_nxt_ = client_req_end_;
    client_resp_expect_ += spec.response_bytes;
    ++next_request_;
    client_retries_ = 0;
  } else {
    pkt.tcp.seq = client_req_end_ - spec.request_bytes;  // retry: same range
  }
  up_.send(pkt);
  client_retx_.arm(kClientRto * static_cast<std::int64_t>(1 << std::min(client_retries_, 6)));
}

void Connection::client_retx_fire() {
  if (done_) return;
  ++client_retries_;
  if (client_retries_ > kMaxClientRetries) {
    TAPO_WARN << "connection " << config_.client_to_server.to_string()
              << " gave up after " << client_retries_ << " retries";
    done_ = true;
    return;
  }
  if (client_state_ == ClientState::kSynSent) {
    client_send_syn();
  } else if (net::before(client_acked_, client_req_end_)) {
    client_send_request(next_request_ - 1);
  }
}

void Connection::client_on_packet(const net::CapturedPacket& pkt) {
  if (done_ && !pkt.tcp.flags.fin) return;

  if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) {
    // SYN-ACK (possibly a retransmission).
    const bool first = !syn_acked_;
    syn_acked_ = true;
    server_isn_ = pkt.tcp.seq;
    server_wscale_ = pkt.tcp.window_scale.value_or(0);
    if (first) {
      client_state_ = ClientState::kEstablished;
      metrics_.established = sim_.now();
      receiver_->start(server_isn_ + 1);
      client_retx_.cancel();
      // Handshake-completing ACK.
      TcpReceiver::AckSpec spec;
      spec.ack = receiver_->rcv_nxt();
      spec.rwnd_bytes = receiver_->current_rwnd();
      client_emit_ack(spec);
      // First request after its configured gap.
      const Duration gap = config_.requests[0].client_gap;
      sim_.schedule(gap, [this] {
        if (!done_) client_send_request(0);
      });
    } else {
      TcpReceiver::AckSpec spec;
      spec.ack = receiver_->rcv_nxt();
      spec.rwnd_bytes = receiver_->current_rwnd();
      client_emit_ack(spec);
    }
    return;
  }

  // Any established packet may acknowledge client request data.
  if (pkt.tcp.flags.ack && net::after(pkt.tcp.ack, client_acked_)) {
    client_acked_ = pkt.tcp.ack;
    if (net::at_or_after(client_acked_, client_req_end_)) {
      client_retx_.cancel();
    }
  }

  if (pkt.payload_len > 0) {
    receiver_->on_data(pkt.tcp.seq, pkt.payload_len);
    client_maybe_next_request();
  } else if (pkt.tcp.flags.fin) {
    receiver_->on_fin(pkt.tcp.seq);
    client_state_ = ClientState::kClosed;
  }
}

void Connection::client_maybe_next_request() {
  const std::uint64_t received =
      net::distance(server_isn_ + 1, receiver_->rcv_nxt());
  // Mark completed responses.
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < next_request_; ++k) {
    cum += config_.requests[k].response_bytes;
    auto& rm = metrics_.requests[k];
    if (!rm.completed && received >= cum) {
      rm.client_got_resp = sim_.now();
      rm.completed = true;
    }
  }
  // Issue the next request once the previous response fully arrived.
  if (next_request_ < config_.requests.size() &&
      received >= client_resp_expect_ &&
      net::at_or_after(client_acked_, client_req_end_)) {
    const std::size_t idx = next_request_;
    const Duration gap = config_.requests[idx].client_gap;
    if (gap == Duration::zero()) {
      client_send_request(idx);
    } else {
      sim_.schedule(gap, [this, idx] {
        if (!done_ && next_request_ == idx) client_send_request(idx);
      });
    }
  }
}

// ---------------------------------------------------------------- server --

void Connection::server_on_packet(const net::CapturedPacket& pkt) {
  capture_at_server(pkt);

  if (pkt.tcp.flags.syn && !pkt.tcp.flags.ack) {
    if (!server_established_) {
      server_established_ = true;
      server_rcv_nxt_ = pkt.tcp.seq + 1;
      sender_->start(server_isn_ + 1);
    }
    // SYN-ACK (re)transmission.
    net::CapturedPacket syn_ack = make_packet(/*from_client=*/false);
    syn_ack.tcp.seq = server_isn_;
    syn_ack.tcp.ack = server_rcv_nxt_;
    syn_ack.tcp.flags.syn = true;
    syn_ack.tcp.flags.ack = true;
    syn_ack.tcp.window = kMaxWindowField;
    syn_ack.tcp.mss = static_cast<std::uint16_t>(config_.sender.mss);
    syn_ack.tcp.sack_permitted = pkt.tcp.sack_permitted;
    if (pkt.tcp.window_scale) syn_ack.tcp.window_scale = 0;
    synack_sent_ = sim_.now();
    capture_at_server(syn_ack);
    down_.send(syn_ack);
    return;
  }

  if (!server_established_) return;  // stray packet before SYN

  if (!handshake_rtt_seeded_ && pkt.tcp.flags.ack) {
    handshake_rtt_seeded_ = true;
    sender_->seed_rtt(sim_.now() - synack_sent_);
  }

  if (pkt.payload_len > 0) {
    server_handle_request_data(pkt);
  }

  if (pkt.tcp.flags.ack) {
    const std::uint32_t rwnd_bytes = static_cast<std::uint32_t>(pkt.tcp.window)
                                     << client_wscale_;
    sender_->on_ack(pkt.tcp.ack, rwnd_bytes, pkt.tcp.sack_blocks,
                    extract_dsack(pkt.tcp), pkt.payload_len > 0);
    server_check_request_acked();
  }
}

void Connection::server_handle_request_data(const net::CapturedPacket& pkt) {
  const net::Seq32 end = pkt.tcp.seq + pkt.payload_len;
  if (net::at_or_before(pkt.tcp.seq, server_rcv_nxt_) &&
      net::after(end, server_rcv_nxt_)) {
    server_rcv_nxt_ = end;
  }
  // Acknowledge the request promptly (the response may lag behind by the
  // backend think time, so don't rely on piggybacking).
  server_emit_pure_ack();

  // Serve any requests that are now fully received, in order.
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < config_.requests.size(); ++k) {
    cum += config_.requests[k].request_bytes;
    const std::uint64_t received =
        net::distance(client_isn_ + 1, server_rcv_nxt_);
    if (k == server_next_request_ && received >= cum) {
      ++server_next_request_;
      server_begin_response(k);
    }
  }
}

void Connection::server_begin_response(std::size_t idx) {
  const RequestSpec& spec = config_.requests[idx];
  const auto begin_write = [this, idx] {
    const RequestSpec& s = config_.requests[idx];
    if (s.chunk_bytes == 0 || s.chunk_bytes >= s.response_bytes) {
      sender_->app_write(s.response_bytes);
      resp_stream_end_ += s.response_bytes;
      metrics_.total_response_bytes += s.response_bytes;
      ++responses_written_;
      if (responses_written_ == config_.requests.size()) sender_->app_close();
    } else {
      server_write_chunk(idx, s.response_bytes);
    }
  };
  if (spec.server_think == Duration::zero()) {
    begin_write();
  } else {
    sim_.schedule(spec.server_think, begin_write);
  }
}

void Connection::server_write_chunk(std::size_t idx, std::uint64_t remaining) {
  const RequestSpec& spec = config_.requests[idx];
  const std::uint64_t chunk = std::min(spec.chunk_bytes, remaining);
  sender_->app_write(chunk);
  resp_stream_end_ += chunk;
  metrics_.total_response_bytes += chunk;
  remaining -= chunk;
  if (remaining == 0) {
    ++responses_written_;
    if (responses_written_ == config_.requests.size()) sender_->app_close();
    return;
  }
  sim_.schedule(spec.chunk_interval, [this, idx, remaining] {
    server_write_chunk(idx, remaining);
  });
}

void Connection::server_emit_segment(const TcpSender::SegmentOut& seg) {
  net::CapturedPacket pkt = make_packet(/*from_client=*/false);
  pkt.tcp.seq = seg.seq;
  pkt.tcp.ack = server_rcv_nxt_;
  pkt.tcp.flags.ack = true;
  pkt.tcp.flags.fin = seg.fin;
  pkt.tcp.flags.psh = !seg.fin && seg.len > 0 && seg.len < config_.sender.mss;
  pkt.tcp.window = kMaxWindowField;
  pkt.payload_len = seg.len;
  capture_at_server(pkt);
  down_.send(pkt);
}

void Connection::server_emit_pure_ack() {
  net::CapturedPacket pkt = make_packet(/*from_client=*/false);
  pkt.tcp.seq = sender_->snd_nxt();
  pkt.tcp.ack = server_rcv_nxt_;
  pkt.tcp.flags.ack = true;
  pkt.tcp.window = kMaxWindowField;
  capture_at_server(pkt);
  down_.send(pkt);
}

void Connection::server_check_request_acked() {
  const std::uint64_t acked =
      net::distance(server_isn_ + 1, sender_->snd_una());
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < config_.requests.size(); ++k) {
    cum += config_.requests[k].response_bytes;
    auto& rm = metrics_.requests[k];
    if (rm.server_acked_resp == TimePoint() && cum <= resp_stream_end_ &&
        acked >= cum && rm.client_sent != TimePoint()) {
      rm.server_acked_resp = sim_.now();
    }
  }
}

}  // namespace tapo::tcp
