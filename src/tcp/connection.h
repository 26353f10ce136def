// One client-server TCP connection over a simulated duplex path, driven by
// an HTTP-like request/response application model.
//
// The application model reproduces every stall cause the paper's services
// exhibit (§3.4):
//   - `server_think` delays the first response byte (data unavailable:
//     front-end fetches content from back-end servers),
//   - `chunk_bytes`/`chunk_interval` throttle the server application
//     (resource constraint stalls mid-transfer),
//   - `client_gap` models client idle time between requests on a shared
//     connection (cloud storage),
//   - the receiver's small `init_rwnd_bytes` and `app_read_Bps` produce
//     zero-window stalls,
//   - the links inject loss/delay (network stalls).
//
// Packets are captured at the *server* NIC — the paper's vantage point —
// into an optional PacketTrace: server transmissions at send time, client
// packets at arrival time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/trace.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace tapo::tcp {

struct RequestSpec {
  std::uint32_t request_bytes = 200;
  std::uint64_t response_bytes = 64 * 1024;
  /// Client idle time before issuing this request (0 for the first request
  /// means "immediately after the handshake").
  Duration client_gap = Duration::zero();
  /// Server-side delay before the first response byte is available.
  Duration server_think = Duration::zero();
  /// When nonzero, the server app provides the response in chunks of this
  /// size every `chunk_interval` (resource-constraint model).
  std::uint64_t chunk_bytes = 0;
  Duration chunk_interval = Duration::zero();
};

struct ConnectionConfig {
  net::FlowKey client_to_server;  // client is src
  SenderConfig sender;
  ReceiverConfig receiver;
  std::vector<RequestSpec> requests;
  /// Initial sequence numbers for the two directions. Defaults are the
  /// historical fixed values; the wraparound property test sets an ISN just
  /// below 2^32 to drive the whole transfer across the wrap.
  net::Seq32 client_isn = net::Seq32{1000};
  net::Seq32 server_isn = net::Seq32{5000};
  /// Client SYN / request retransmission timer (stop-and-wait app layer).
  Duration client_rto = Duration::seconds(3.0);
  int max_client_retries = 8;
};

struct RequestMetrics {
  TimePoint client_sent;        // client issued the request
  TimePoint server_acked_resp;  // server saw the whole response acked
  TimePoint client_got_resp;    // client received the whole response
  std::uint64_t response_bytes = 0;
  bool completed = false;
  /// Paper §5.2 latency: request initiation to all response packets acked.
  Duration latency() const { return server_acked_resp - client_sent; }
};

struct ConnectionMetrics {
  TimePoint syn_sent;
  TimePoint established;
  TimePoint finished;  // server FIN acked
  bool completed = false;
  std::vector<RequestMetrics> requests;
  std::uint64_t total_response_bytes = 0;
};

class Connection {
 public:
  /// `down` carries server->client packets, `up` client->server.
  /// `trace` is the server-NIC tap: every packet crossing the server NIC
  /// is appended to it (nullptr disables capture). It must outlive the
  /// connection.
  Connection(sim::Simulator& sim, sim::Link& down, sim::Link& up,
             ConnectionConfig config, net::PacketTrace* trace);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Kicks off the client SYN at the current simulation time.
  void start();

  bool done() const { return done_; }
  const ConnectionMetrics& metrics() const { return metrics_; }
  const TcpSender& sender() const { return *sender_; }
  const TcpReceiver& client_receiver() const { return *receiver_; }
  std::uint32_t init_rwnd_bytes() const { return config_.receiver.init_rwnd_bytes; }

 private:
  // -- client side --
  void client_send_syn();
  void client_on_packet(const net::CapturedPacket& pkt);
  void client_send_request(std::size_t idx);
  void client_emit_ack(const TcpReceiver::AckSpec& spec);
  void client_retx_fire();
  void client_maybe_next_request();

  // -- server side --
  void server_on_packet(const net::CapturedPacket& pkt);
  void server_handle_request_data(const net::CapturedPacket& pkt);
  void server_begin_response(std::size_t idx);
  void server_write_chunk(std::size_t idx, std::uint64_t remaining);
  void server_emit_segment(const TcpSender::SegmentOut& seg);
  void server_emit_pure_ack();
  void server_check_request_acked();

  void capture_at_server(const net::CapturedPacket& pkt);
  net::CapturedPacket make_packet(bool from_client) const;

  sim::Simulator& sim_;
  sim::Link& down_;
  sim::Link& up_;
  ConnectionConfig config_;
  net::TraceBuilder capture_;

  std::unique_ptr<TcpSender> sender_;
  std::unique_ptr<TcpReceiver> receiver_;

  // Handshake and app-layer client state.
  enum class ClientState { kIdle, kSynSent, kEstablished, kClosed };
  ClientState client_state_ = ClientState::kIdle;
  net::Seq32 client_isn_;
  net::Seq32 server_isn_;
  net::Seq32 client_snd_nxt_;   // next client payload byte
  net::Seq32 client_req_end_;   // end seq of outstanding request
  net::Seq32 client_acked_;     // highest server ack of client data
  std::size_t next_request_ = 0;       // next request index to issue
  std::uint64_t client_resp_expect_ = 0;  // stream offset of current response end
  sim::Timer client_retx_;
  int client_retries_ = 0;
  bool syn_acked_ = false;
  std::uint8_t client_wscale_ = 0;
  std::uint8_t server_wscale_ = 0;

  // Server app state.
  net::Seq32 server_rcv_nxt_;   // next expected client payload byte
  std::size_t server_next_request_ = 0;  // next request to serve
  std::size_t responses_written_ = 0;
  TimePoint synack_sent_;
  bool handshake_rtt_seeded_ = false;
  std::uint64_t resp_stream_end_ = 0;  // cumulative response bytes written
  bool server_established_ = false;

  ConnectionMetrics metrics_;
  bool done_ = false;
};

}  // namespace tapo::tcp
