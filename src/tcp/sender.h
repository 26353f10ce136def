// Server-side TCP sender modeled on the Linux 2.6.32 stack the paper's
// servers ran (§3.1): congestion-avoidance state machine with Open /
// Disorder / Recovery / Loss states, SACK scoreboard loss detection with an
// adaptive dupthres, fast retransmit with rate-halving cwnd reduction,
// limited transmit, RFC 6298 RTO with exponential backoff, and a persist
// timer for zero receive windows.
//
// Three loss-recovery configurations are selectable, mirroring the paper's
// production A/B setup (§5.1): native Linux, TLP (Tail Loss Probe), and the
// paper's contribution S-RTO (Algorithm 1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>

#include "sim/simulator.h"
#include "tcp/congestion.h"
#include "tcp/rto.h"
#include "tcp/scoreboard.h"
#include "tcp/types.h"
#include "util/time.h"

namespace tapo::tcp {

struct SrtoConfig {
  /// Arm the probe only when packets_out < t1 (paper: 5 for web search,
  /// 10 for cloud storage).
  std::uint32_t t1 = 10;
  /// Halve cwnd on probe only when cwnd > t2 (paper: 5).
  std::uint32_t t2 = 5;
  /// Probe timer = probe_rtt_mult * SRTT (paper: 2, the stall threshold).
  double probe_rtt_mult = 2.0;

  /// Adaptive probe suppression — the paper's stated future work ("we
  /// leave the reduction of unnecessary retransmissions as future work",
  /// §5.2): every DSACK that reveals a probe to have been unnecessary
  /// stretches the probe timer by kSrtoBackoffStep; every probe whose
  /// segment is acked without a DSACK relaxes it again.
  bool adaptive = false;
};

/// Adaptive S-RTO: each stretch level lengthens the probe timer by this
/// fraction of probe_rtt_mult * SRTT, up to kSrtoMaxBackoffLevel levels.
inline constexpr double kSrtoBackoffStep = 0.5;
inline constexpr int kSrtoMaxBackoffLevel = 4;

/// Fast-retransmit threshold at connection start (2.6.32's
/// sysctl_tcp_reordering). Each DSACK that proves a fast retransmit
/// spurious raises it by one ("adjusted to the largest number of reordered
/// packets", §3.1), up to kMaxDupthres.
inline constexpr std::uint32_t kInitialDupthres = 3;
inline constexpr std::uint32_t kMaxDupthres = 10;

struct SenderConfig {
  std::uint32_t mss = 1448;
  std::uint32_t init_cwnd = 3;  // 2.6.32 initial window
  RecoveryMechanism recovery = RecoveryMechanism::kNative;
  SrtoConfig srto;
  CcAlgo cc = CcAlgo::kReno;

  /// Pace new-data transmissions across the RTT (one segment every
  /// SRTT/cwnd) instead of bursting a whole window — the mitigation §4.3
  /// suggests for continuous-loss stalls ("spacing out the transmission of
  /// packets in a window across one RTT", citing TCP pacing).
  bool pacing = false;
};

struct SenderStats {
  std::uint64_t segments_sent = 0;       // data segments incl. retransmissions
  std::uint64_t bytes_sent = 0;          // payload bytes incl. retransmissions
  std::uint64_t retransmissions = 0;     // retransmitted segments (any cause)
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_fires = 0;           // native timeout events
  std::uint64_t tlp_probes = 0;
  std::uint64_t srto_probes = 0;
  std::uint64_t persist_probes = 0;
  std::uint64_t zero_window_episodes = 0;
  std::uint64_t dsacks_received = 0;     // spurious retransmissions reported
  std::uint64_t srto_spurious_probes = 0;  // probes revealed useless by DSACK
};

class TcpSender {
 public:
  struct SegmentOut {
    Seq32 seq;
    std::uint32_t len = 0;  // payload bytes (0 for a bare FIN)
    bool fin = false;
    bool retransmission = false;
  };
  using SendSegmentFn = std::function<void(const SegmentOut&)>;
  /// Fires once when all written data (and FIN, if closed) is acked.
  using DoneFn = std::function<void()>;

  TcpSender(sim::Simulator& sim, SenderConfig config, SendSegmentFn send);

  /// Begins the data stream at `isn` (sequence of the first payload byte).
  void start(Seq32 isn);

  /// Seeds the RTT estimator from the handshake (SYN-ACK -> ACK), as Linux
  /// does — without it the RTO stays at the 3 s initial value until the
  /// first data segment is acked.
  void seed_rtt(Duration rtt) { rto_.sample(rtt); }

  /// Appends `bytes` of application data to the stream and tries to send.
  void app_write(std::uint64_t bytes);

  /// No more data will be written; a FIN follows the last byte.
  void app_close();

  /// Processes an incoming ACK. `rwnd_bytes` is the scaled window. `dsack`
  /// is set when the leading SACK block reported a duplicate.
  /// `carries_data` marks piggybacked ACKs (they never count as dupacks).
  void on_ack(Seq32 ack, std::uint32_t rwnd_bytes,
              std::span<const net::SackBlock> sack_blocks,
              std::optional<net::SackBlock> dsack, bool carries_data = false);
  void on_ack(Seq32 ack, std::uint32_t rwnd_bytes,
              std::initializer_list<net::SackBlock> sack_blocks,
              std::optional<net::SackBlock> dsack, bool carries_data = false) {
    on_ack(ack, rwnd_bytes,
           std::span<const net::SackBlock>(sack_blocks.begin(), sack_blocks.size()),
           dsack, carries_data);
  }

  void set_done_callback(DoneFn fn) { done_ = std::move(fn); }

  // -- Introspection (tests, benches) --
  CaState state() const { return state_; }
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  std::uint32_t dupthres() const { return dupthres_; }
  Seq32 snd_una() const { return snd_una_; }
  Seq32 snd_nxt() const { return snd_nxt_; }
  Seq32 write_seq() const { return write_seq_; }
  std::uint32_t in_flight() const { return board_.in_flight(); }
  std::uint32_t packets_out() const { return board_.packets_out(); }
  std::uint32_t peer_rwnd() const { return rwnd_bytes_; }
  const RtoEstimator& rto_estimator() const { return rto_; }
  const Scoreboard& scoreboard() const { return board_; }
  const SenderStats& stats() const { return stats_; }
  bool finished() const { return finished_; }
  const SenderConfig& config() const { return config_; }
  bool zero_window() const { return zero_window_; }
  Duration persist_interval() const { return persist_interval_; }
  bool timer_armed() const { return timer_.armed(); }
  bool fin_pending() const { return fin_pending_; }
  bool fin_sent() const { return fin_sent_; }

 private:
  enum class TimerMode { kNone, kRto, kTlpProbe, kSrtoProbe, kPersist };

  void try_send();
  bool send_new_segment();
  void retransmit(Seq32 seq, bool rto_retrans);
  void retransmit_pending_lost();
  std::uint32_t send_window_segments() const;
  bool can_send_new() const;
  void enter_recovery();
  void maybe_complete_recovery();
  void rearm_timer();
  void rearm_timer_impl();
  void on_timer_fire();
  void fire_rto();
  void fire_tlp();
  void fire_srto();
  void fire_persist();
  void check_done();
  Duration tlp_pto() const;
  Duration pacing_interval() const;
  /// Telemetry taps (no-ops unless tracing/metrics are enabled).
  void note_segment(const SegmentOut& out);
  void trace_window();

  sim::Simulator& sim_;
  SenderConfig config_;
  SendSegmentFn send_;
  DoneFn done_;

  Scoreboard board_;
  RtoEstimator rto_;
  std::unique_ptr<CongestionControl> cc_;

  CaState state_ = CaState::kOpen;
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0x7fffffff;
  std::uint32_t dupthres_ = kInitialDupthres;
  std::uint32_t dupacks_ = 0;
  Seq32 high_seq_;                   // recovery/loss exit point
  std::uint32_t prr_ack_counter_ = 0;

  Seq32 isn_;
  Seq32 snd_una_;
  Seq32 snd_nxt_;
  Seq32 write_seq_;                  // end of app-provided data
  bool fin_pending_ = false;         // app_close called
  bool fin_sent_ = false;
  Seq32 fin_seq_;                    // seq consumed by FIN (when sent)

  std::uint32_t rwnd_bytes_ = 0xffffffff;
  bool zero_window_ = false;
  Duration persist_interval_ = Duration::zero();
  /// snd_nxt when the current zero-window episode began: data sent before
  /// it is still governed by the RTO; probe bytes sent at/after it are
  /// governed by the persist timer.
  Seq32 zero_window_seq_;

  sim::Timer timer_;
  TimerMode timer_mode_ = TimerMode::kNone;
  bool tlp_probe_outstanding_ = false;
  sim::Timer pace_timer_;
  TimePoint pace_next_;

  /// Adaptive S-RTO: recently probed ranges awaiting a verdict, and the
  /// current probe-timer stretch level.
  std::deque<net::SackBlock> probed_ranges_;
  int srto_backoff_level_ = 0;
  /// Sticky tcp_is_cwnd_limited analogue, set at send time: the window was
  /// full while data remained. Gates cwnd growth (no growth when
  /// app/rwnd-limited).
  bool cwnd_limited_ = false;
  /// Fast retransmit must go out even when limited-transmit inflation left
  /// in_flight >= cwnd (the kernel guarantees one (re)transmission per
  /// recovery-entering or partial ACK).
  bool force_one_retransmit_ = false;

  SenderStats stats_;
  bool finished_ = false;
  bool started_ = false;
  /// Last cwnd/ssthresh/state reported to the tracer (dedup for the
  /// kCwnd/kCaState event streams).
  std::uint32_t traced_cwnd_ = 0;
  std::uint32_t traced_ssthresh_ = 0;
  CaState traced_state_ = CaState::kOpen;
};

}  // namespace tapo::tcp
