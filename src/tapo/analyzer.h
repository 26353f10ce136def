// TAPO: the paper's TCP stall diagnosis tool (§3).
//
// Per flow, the analyzer (1) mimics the server TCP stack from the trace to
// reconstruct the Table-2 parameters (congestion state, cwnd estimate,
// in_flight, sacked_out/lost_out, retransmission counts, SRTT/RTO per
// RFC 6298), (2) detects stalls — inter-packet gaps at the server larger
// than min(tau*SRTT, RTO), tau = 2 (§2.2) — and (3) classifies each stall's
// root cause with the Fig.-5 decision tree, sub-classifying timeout-
// retransmission stalls in the Table-5 precedence order.
//
// Unlike the live sender, the analyzer sees the whole trace, so it refines
// lost_out with DSACK evidence (spurious retransmissions) and can resolve
// the loss-vs-delay ambiguity retrospectively (§3.3).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "tapo/flow.h"
#include "tcp/types.h"

namespace tapo::analysis {

/// Top-level stall causes (Table 3 rows).
enum class StallCause : std::uint8_t {
  kDataUnavailable,     // server: content fetched from back-end
  kResourceConstraint,  // server: app starved the socket mid-transfer
  kClientIdle,          // client: no request pending
  kZeroWindow,          // client: advertised rwnd hit zero
  kPacketDelay,         // network: delay without timeout retransmission
  kRetransmission,      // network: timeout retransmission
  kUndetermined,
};
constexpr std::size_t kNumStallCauses = 7;
const char* to_string(StallCause c);

/// Timeout-retransmission stall breakdown (Table 5 rows, in the paper's
/// examination order).
enum class RetransCause : std::uint8_t {
  kDoubleRetrans,
  kTailRetrans,
  kSmallCwnd,
  kSmallRwnd,
  kContinuousLoss,
  kAckDelayLoss,
  kUndetermined,
  kNone,  // stall is not a timeout-retransmission stall
};
constexpr std::size_t kNumRetransCauses = 7;  // excluding kNone
const char* to_string(RetransCause c);

struct StallRecord {
  TimePoint start;
  Duration duration;
  StallCause cause = StallCause::kUndetermined;
  RetransCause retrans_cause = RetransCause::kNone;
  /// Double-retransmission split (Table 6): true when the *first*
  /// retransmission of the segment was a fast retransmit (f-double).
  bool f_double = false;
  /// Congestion-avoidance state when the stall began (Table 7).
  tcp::CaState state_at_stall = tcp::CaState::kOpen;
  /// Eq.-1 in-flight estimate when the stall began (Fig. 7b / 10b / 12).
  std::uint32_t in_flight = 0;
  /// Retransmitted packet index / data packets in flow (Fig. 7a / 10a).
  double rel_position = 0.0;
  /// Index (a FlowView::packets position) of the packet ending the stall.
  std::size_t cur_pkt_index = 0;
  /// The classifier demoted this stall to kUndetermined because capture
  /// artifacts (a sequence gap, a mid-stream start) made the cause
  /// evidence untrustworthy. Counted in CaptureQuality::suspect_stalls.
  bool capture_suspect = false;
};

/// Per-flow capture-trustworthiness record: what the analyzer inferred
/// about the *capture* (as opposed to the connection) while mimicking the
/// flow. Default-constructed values mean "pristine capture". Populated on
/// every analysis; the robustness harness (bench/robustness_stability.cc)
/// cross-checks these sums against the tapo_capture_artifacts_total
/// telemetry counters, which are incremented from the same sites.
struct CaptureQuality {
  /// Adjacent identical-header records suppressed as capture duplicates
  /// (mirror ports / dual taps), not counted as retransmissions.
  std::uint64_t dup_packets = 0;
  /// Server-side sequence gaps: data the server must have sent but the
  /// capture never recorded (kernel capture drops).
  std::uint64_t seq_gaps = 0;
  /// Packets whose TCP options were cut by the snaplen (SACK blocks or
  /// timestamps possibly missing).
  std::uint64_t truncated_packets = 0;
  /// No handshake observed; sequence state was seeded from the first
  /// server data packet (rotated / mid-stream capture).
  bool mid_stream = false;
  /// Stalls demoted to StallCause::kUndetermined because artifacts made
  /// the evidence ambiguous (see StallRecord::capture_suspect).
  std::uint64_t suspect_stalls = 0;

  /// Any artifact at all — the flow counts toward tapo_flows_degraded_total.
  bool degraded() const {
    return dup_packets != 0 || seq_gaps != 0 || truncated_packets != 0 ||
           mid_stream;
  }
};

struct FlowAnalysis {
  net::FlowKey key;
  // -- transfer level --
  Duration transmission_time;        // first to last packet
  std::uint64_t unique_bytes = 0;    // de-duplicated server payload
  std::uint64_t data_segments = 0;   // server data packets incl. retrans
  std::uint64_t retrans_segments = 0;
  double avg_speed_Bps = 0.0;
  // -- RTT / RTO --
  /// Mean RTT sample (handshake, SACK and cumulative-ACK samples of
  /// segments sent once). Zero when the flow had no sample.
  double avg_rtt_us = 0.0;
  /// Mean RTO recorded at timeout retransmissions ("the RTO is recorded
  /// for each timeout retransmission", §2.1) — includes backoff. Zero when
  /// the flow had no timeouts.
  double avg_rto_us = 0.0;
  // -- stalls --
  std::vector<StallRecord> stalls;
  Duration stalled_time;
  double stall_ratio = 0.0;  // stalled / transmission (Fig. 3)
  // -- receiver side --
  std::uint32_t init_rwnd_bytes = 0;
  std::uint32_t init_rwnd_mss = 0;
  bool had_zero_rwnd = false;
  // -- in-flight samples on every ACK (Fig. 11) --
  std::vector<std::uint32_t> inflight_on_ack;

  std::uint64_t timeout_retrans = 0;  // timeout retransmissions observed
  std::uint64_t fast_retrans = 0;
  std::uint64_t spurious_retrans = 0;  // DSACK-confirmed

  /// How much the capture itself can be trusted (default = pristine).
  CaptureQuality capture;
};

struct AnalyzerConfig {
  /// Stall threshold multiplier: gap > min(tau*SRTT, RTO).
  double tau = 2.0;
  /// Suppress adjacent identical-header records whose timestamps differ by
  /// at most this much (zero = exact) as capture duplicates: mirror ports
  /// and dual taps deliver both copies back to back. Unset (the default)
  /// keeps every record: even a pristine single-tap capture can
  /// legitimately contain back-to-back byte-identical pure ACKs (dupacks
  /// emitted in the same microsecond), which no analyzer can tell from a
  /// mirror copy, so set a window only when the capture setup is known to
  /// duplicate. Setting one is what makes dup-impaired captures classify
  /// identically to pristine ones (bench/robustness_stability.cc).
  std::optional<Duration> dup_window{};
  /// Declared capture-clock granularity: every packet timestamp is floored
  /// to a multiple of this before the mimic sees it (0 = off). Flooring is
  /// idempotent, so analysis at quantum q is *invariant* to capture-side
  /// timestamp quantization at any granularity dividing q — the pristine
  /// tap and the coarse-clock capture classify bit-identically
  /// (bench/robustness_stability.cc). Costs timing resolution: stall
  /// boundaries and RTT samples are only accurate to +-q.
  Duration ts_quantum = Duration::zero();

  /// Throws std::invalid_argument on any out-of-range field. Called by the
  /// Analyzer constructor, so a bad config fails at construction, not as a
  /// silent misclassification deep in a run.
  void validate() const;
};

struct AnalysisResult {
  std::vector<FlowAnalysis> flows;
};

class Analyzer {
 public:
  /// Validates the config (std::invalid_argument on out-of-range fields).
  explicit Analyzer(AnalyzerConfig config = {});

  /// Runs the mimic/classifier over one flow, reading its packets in
  /// place through the view (zero-copy).
  FlowAnalysis analyze_flow(const FlowView& view) const;

  /// Batch entry point: one FlowAccumulator pass demuxes the trace in
  /// place (demux_flow_views), then analyze_flow runs on each view. Flows
  /// come back in first-packet order. Nothing per packet is copied; the
  /// views only live for the duration of the call.
  AnalysisResult analyze(const net::PacketTrace& trace,
                         const DemuxOptions& demux = {}) const;
  /// Same, over a retained chunked trace (retained chunks + open tail, in
  /// order), read in place — never concatenated.
  AnalysisResult analyze(const net::ChunkedTrace& trace,
                         const DemuxOptions& demux = {}) const;

  const AnalyzerConfig& config() const { return config_; }

 private:
  AnalyzerConfig config_;
};

}  // namespace tapo::analysis
