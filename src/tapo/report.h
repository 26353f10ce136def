// Aggregation of per-flow analyses into the paper's tables and figures.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/cdf.h"
#include "tapo/analyzer.h"

namespace tapo::analysis {

/// Count + total stalled time for one cause bucket.
struct CauseAgg {
  std::uint64_t count = 0;
  Duration time;
};

/// Table 3: stall breakdown by top-level cause, by volume and time, built
/// incrementally with add() (streaming sinks fold each flow as it lands).
struct StallBreakdown {
  std::array<CauseAgg, kNumStallCauses> by_cause;
  std::uint64_t total_count = 0;
  Duration total_time;

  void add(const FlowAnalysis& flow);

  double volume_fraction(StallCause c) const;
  double time_fraction(StallCause c) const;
};

/// Table 5: retransmission-stall breakdown, built with add() like
/// StallBreakdown.
struct RetransBreakdown {
  std::array<CauseAgg, kNumRetransCauses> by_cause;
  std::uint64_t total_count = 0;
  Duration total_time;
  // Table 6: f-double vs t-double (time).
  Duration f_double_time;
  Duration t_double_time;
  // Table 7: tail stalls by state (time).
  Duration tail_open_time;
  Duration tail_recovery_time;

  void add(const FlowAnalysis& flow);

  double volume_fraction(RetransCause c) const;
  double time_fraction(RetransCause c) const;
};

/// Table 1-style service summary.
struct ServiceSummary {
  std::uint64_t flows = 0;
  double avg_speed_Bps = 0.0;
  double avg_flow_bytes = 0.0;
  double pkt_loss = 0.0;  // retransmitted / sent data segments
  double avg_rtt_us = 0.0;
  double avg_rto_us = 0.0;
};

StallBreakdown make_stall_breakdown(const std::vector<FlowAnalysis>& flows);
RetransBreakdown make_retrans_breakdown(const std::vector<FlowAnalysis>& flows);
ServiceSummary make_service_summary(const std::vector<FlowAnalysis>& flows);

/// Fig. 3: stalled-time / transmission-time ratio per flow (flows with at
/// least one packet; flows without stalls contribute 0).
stats::Cdf stall_ratio_cdf(const std::vector<FlowAnalysis>& flows);

/// Fig. 1a: per-flow average RTT and RTO (ms).
stats::Cdf flow_rtt_cdf_ms(const std::vector<FlowAnalysis>& flows);
stats::Cdf flow_rto_cdf_ms(const std::vector<FlowAnalysis>& flows);
/// Fig. 1b: per-flow RTO/RTT ratio.
stats::Cdf rto_over_rtt_cdf(const std::vector<FlowAnalysis>& flows);

/// Fig. 6: initial receive window in MSS.
stats::Cdf init_rwnd_cdf_mss(const std::vector<FlowAnalysis>& flows);

/// Fig. 7 / Fig. 10 context: relative position and in-flight size of
/// double- / tail-retransmission stalls.
stats::Cdf stall_position_cdf(const std::vector<FlowAnalysis>& flows,
                              RetransCause cause);
stats::Cdf stall_inflight_cdf(const std::vector<FlowAnalysis>& flows,
                              RetransCause cause);

/// Fig. 11: in-flight size sampled on every ACK.
stats::Cdf inflight_on_ack_cdf(const std::vector<FlowAnalysis>& flows);

/// Table 4: fraction of flows in an init-rwnd bucket that hit a zero
/// receive window. Buckets are [edges[i], edges[i+1]) in MSS.
std::vector<double> zero_rwnd_probability(
    const std::vector<FlowAnalysis>& flows,
    const std::vector<std::uint32_t>& bucket_edges_mss);

/// One-flow human-readable stall report (used by the TAPO CLI example).
std::string describe_flow(const FlowAnalysis& fa);

}  // namespace tapo::analysis
