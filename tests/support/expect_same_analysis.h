#pragma once
// Deep FlowAnalysis equality over every field. EXPECT_EQ on doubles is
// deliberate: two paths that must agree (batch and streaming, one view and
// the whole trace, a sequence-wrapped transfer and its control) run the
// identical instruction stream, so results are bit-equal, not merely close.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "tapo/analyzer.h"

namespace tapo::test {

inline void expect_same_stall(const analysis::StallRecord& a,
                              const analysis::StallRecord& b) {
  EXPECT_EQ(a.start.us(), b.start.us());
  EXPECT_EQ(a.duration.us(), b.duration.us());
  EXPECT_EQ(a.cause, b.cause);
  EXPECT_EQ(a.retrans_cause, b.retrans_cause);
  EXPECT_EQ(a.f_double, b.f_double);
  EXPECT_EQ(a.state_at_stall, b.state_at_stall);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.rel_position, b.rel_position);
  EXPECT_EQ(a.cur_pkt_index, b.cur_pkt_index);
  EXPECT_EQ(a.capture_suspect, b.capture_suspect);
}

inline void expect_same_analysis(const analysis::FlowAnalysis& a,
                                 const analysis::FlowAnalysis& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.transmission_time.us(), b.transmission_time.us());
  EXPECT_EQ(a.unique_bytes, b.unique_bytes);
  EXPECT_EQ(a.data_segments, b.data_segments);
  EXPECT_EQ(a.retrans_segments, b.retrans_segments);
  EXPECT_EQ(a.avg_speed_Bps, b.avg_speed_Bps);
  EXPECT_EQ(a.avg_rtt_us, b.avg_rtt_us);
  EXPECT_EQ(a.avg_rto_us, b.avg_rto_us);
  EXPECT_EQ(a.stalled_time.us(), b.stalled_time.us());
  EXPECT_EQ(a.stall_ratio, b.stall_ratio);
  EXPECT_EQ(a.init_rwnd_bytes, b.init_rwnd_bytes);
  EXPECT_EQ(a.init_rwnd_mss, b.init_rwnd_mss);
  EXPECT_EQ(a.had_zero_rwnd, b.had_zero_rwnd);
  EXPECT_EQ(a.inflight_on_ack, b.inflight_on_ack);
  EXPECT_EQ(a.timeout_retrans, b.timeout_retrans);
  EXPECT_EQ(a.fast_retrans, b.fast_retrans);
  EXPECT_EQ(a.spurious_retrans, b.spurious_retrans);
  EXPECT_EQ(a.capture.dup_packets, b.capture.dup_packets);
  EXPECT_EQ(a.capture.seq_gaps, b.capture.seq_gaps);
  EXPECT_EQ(a.capture.truncated_packets, b.capture.truncated_packets);
  EXPECT_EQ(a.capture.mid_stream, b.capture.mid_stream);
  EXPECT_EQ(a.capture.suspect_stalls, b.capture.suspect_stalls);
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    SCOPED_TRACE("stall " + std::to_string(i));
    expect_same_stall(a.stalls[i], b.stalls[i]);
  }
}

}  // namespace tapo::test
