// CSV export of analysis results — for feeding the per-flow and per-stall
// data into external plotting/statistics pipelines (the production TAPO
// deployment fed a daily-maintenance dashboard; this is the equivalent
// integration surface).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tapo/analyzer.h"

namespace tapo::analysis {

/// One row per flow: transfer stats, RTT/RTO, stall totals.
/// Columns: flow,server,client,bytes,segments,retrans,timeout_retrans,
/// fast_retrans,spurious,transmission_s,stalled_s,stall_ratio,avg_rtt_ms,
/// avg_rto_ms,avg_speed_Bps,init_rwnd_bytes,had_zero_rwnd,stalls
void write_flows_csv(std::ostream& out, const std::vector<FlowAnalysis>& flows);

/// One row per stall: flow,start_s,duration_s,cause,retrans_cause,
/// f_double,state,in_flight,rel_position
void write_stalls_csv(std::ostream& out, const std::vector<FlowAnalysis>& flows);

/// Convenience file writers; throw std::runtime_error on I/O failure.
void write_flows_csv_file(const std::string& path,
                          const std::vector<FlowAnalysis>& flows);
void write_stalls_csv_file(const std::string& path,
                           const std::vector<FlowAnalysis>& flows);

}  // namespace tapo::analysis
