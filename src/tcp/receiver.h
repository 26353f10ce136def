// Client-side TCP receive logic: cumulative ACK generation with delayed
// ACKs, SACK/DSACK blocks for out-of-order and duplicate data, and receive
// window management (fixed small windows for the paper's "old client
// software", autotuned growing buffers for modern clients, and slow-reader
// zero windows).
//
// The receiver is transport-only; request generation lives in the
// connection/application layer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/seq.h"
#include "net/tcp_header.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace tapo::tcp {

using net::Seq32;

struct ReceiverConfig {
  std::uint32_t mss = 1448;
  /// Receive buffer at connection start; also the rwnd advertised in the SYN
  /// (Fig. 6 studies this value: some clients advertise as little as 2 MSS).
  std::uint32_t init_rwnd_bytes = 64 * 1024;
  /// Autotune cap; ignored when !window_autotune.
  std::uint32_t max_rwnd_bytes = 1024 * 1024;
  /// Grow the buffer as the transfer proceeds (modern receivers). Old
  /// clients with fixed small buffers set this false.
  bool window_autotune = true;
  /// Application read rate draining the buffer; 0 = reads instantly.
  /// Slow readers cause the zero-rwnd stalls of Table 3/4.
  std::uint64_t app_read_Bps = 0;
  /// Reader pause model: after consuming `pause_every_bytes` the app stops
  /// reading for `pause_duration` (GC pauses, busy disks, paused players).
  /// Pauses are what turn a slow reader into multi-hundred-ms zero-window
  /// stalls. 0 disables.
  std::uint64_t pause_every_bytes = 0;
  Duration pause_duration = Duration::millis(500);
  /// Delayed-ACK: ack at latest after this delay (RFC 1122 allows 500 ms;
  /// Linux uses 40–200 ms).
  Duration delack_timeout = Duration::millis(40);
};

class TcpReceiver {
 public:
  struct AckSpec {
    Seq32 ack;
    std::uint32_t rwnd_bytes = 0;
    net::SackList sack_blocks;  // inline, DSACK first when present
  };
  using SendAckFn = std::function<void(const AckSpec&)>;

  TcpReceiver(sim::Simulator& sim, ReceiverConfig config, SendAckFn send_ack);

  /// Initial sequence expected (end of server SYN). Call once after the
  /// handshake establishes the server's ISN.
  void start(Seq32 rcv_nxt);

  /// Processes an arriving data segment [seq, seq+len). May emit an ACK now
  /// or arm the delayed-ACK timer.
  void on_data(Seq32 seq, std::uint32_t len);

  /// Processes FIN at `seq` (after any payload): acks it immediately.
  void on_fin(Seq32 seq);

  Seq32 rcv_nxt() const { return rcv_nxt_; }
  /// Current advertised window after draining the app-read model.
  std::uint32_t current_rwnd();
  std::uint32_t buffer_capacity() const { return buffer_cap_; }

  /// Number of zero-window advertisements emitted so far.
  std::uint64_t zero_window_acks() const { return zero_window_acks_; }
  std::uint64_t dsacks_sent() const { return dsacks_sent_; }

  /// Out-of-order ranges currently buffered, sorted by start and disjoint
  /// (invariant-monitor introspection).
  const std::vector<net::SackBlock>& ooo_blocks() const { return ooo_; }

 private:
  void on_data_impl(Seq32 seq, std::uint32_t len);
  void drain_app_reads();
  void maybe_autotune();
  void emit_ack(std::optional<net::SackBlock> dsack);
  void arm_delack();
  void on_delack_fire();
  void schedule_window_update_check();
  std::uint32_t buffered_bytes() const;
  void add_ooo(Seq32 start, Seq32 end);
  bool is_duplicate(Seq32 start, Seq32 end) const;

  sim::Simulator& sim_;
  ReceiverConfig config_;
  SendAckFn send_ack_;

  Seq32 rcv_nxt_;
  Seq32 read_seq_;   // app has consumed up to here
  std::uint32_t buffer_cap_ = 0;
  Seq32 tune_mark_;  // rcv_nxt at the last autotune step
  TimePoint paused_until_;
  std::uint64_t read_since_pause_ = 0;
  TimePoint last_drain_;
  double drain_remainder_ = 0.0;

  // Out-of-order ranges sorted by start; most-recently-updated block index
  // reported first in SACK.
  std::vector<net::SackBlock> ooo_;
  std::vector<net::SackBlock> recent_sacks_;  // report order

  std::uint32_t unacked_segments_ = 0;
  sim::Timer delack_timer_;
  bool advertised_zero_ = false;
  bool window_update_pending_ = false;
  bool fin_seen_ = false;

  std::uint64_t zero_window_acks_ = 0;
  std::uint64_t dsacks_sent_ = 0;
};

}  // namespace tapo::tcp
