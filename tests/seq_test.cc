// Seq32 serial-arithmetic unit tests plus the sequence-wraparound property
// test: a transfer whose ISN sits just below 2^32 (so every sequence number
// crosses the wrap mid-flow) must classify bit-identically to the same
// transfer started from a small ISN.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <type_traits>

#include "net/ipv4.h"
#include "net/seq.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tapo/analyzer.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace tapo::net {
namespace {

constexpr Seq32 S(std::uint32_t v) { return Seq32{v}; }

// The type carries the wrap-safety guarantee: a Seq32 never meets a raw
// integer, so no comparison can fall back to integer ordering.
template <typename L, typename R>
constexpr bool kLessCompiles = requires(L l, R r) { l < r; };
template <typename L, typename R>
constexpr bool kEqualCompiles = requires(L l, R r) { l == r; };

static_assert(!std::is_convertible_v<Seq32, std::uint32_t>);
static_assert(!std::is_convertible_v<std::uint32_t, Seq32>);
static_assert(!kLessCompiles<Seq32, std::uint32_t>);  // a < 5u
static_assert(!kLessCompiles<std::uint32_t, Seq32>);  // 5u < a
static_assert(!kEqualCompiles<Seq32, std::uint32_t>);  // a == 5u
static_assert(kLessCompiles<Seq32, Seq32>);

TEST(Seq32, OrderingWithoutWrap) {
  EXPECT_TRUE(before(S(1), S(2)));
  EXPECT_FALSE(before(S(2), S(1)));
  EXPECT_FALSE(before(S(7), S(7)));
  EXPECT_TRUE(after(S(2), S(1)));
  EXPECT_TRUE(at_or_before(S(7), S(7)));
  EXPECT_TRUE(at_or_after(S(7), S(7)));
  EXPECT_TRUE(S(1) < S(2));
  EXPECT_TRUE(S(2) >= S(2));
}

TEST(Seq32, OrderingAcrossWrap) {
  // 0xFFFFFFF0 is *earlier* in the stream than 0x10: serial ordering, not
  // integer ordering.
  EXPECT_TRUE(before(S(0xFFFFFFF0u), S(0x10)));
  EXPECT_TRUE(after(S(0x10), S(0xFFFFFFF0u)));
  EXPECT_TRUE(S(0xFFFFFFF0u) < S(0x10));
  EXPECT_TRUE(at_or_before(S(0xFFFFFFFFu), S(0x0)));
  EXPECT_TRUE(seq_in_range(S(0x5), S(0xFFFFFFF0u), S(0x10)));
  EXPECT_FALSE(seq_in_range(S(0x10), S(0xFFFFFFF0u), S(0x10)));
}

TEST(Seq32, OrderingAtHalfSpace) {
  // The serial-arithmetic boundary: values exactly 2^31 apart. RFC 1982
  // leaves this undefined; our signed-difference form resolves it
  // consistently — (s32)(a - b) is INT32_MIN either way, so s + 2^31
  // compares before() s and never after() it. What matters is that the
  // answer is deterministic and both directions agree.
  const Seq32 s = S(1000);
  const Seq32 opposite = advance(s, 0x80000000u);
  EXPECT_TRUE(before(opposite, s));
  EXPECT_FALSE(after(opposite, s));
  EXPECT_TRUE(before(s, opposite));
  EXPECT_FALSE(after(s, opposite));
  // One byte short of half-space is unambiguous in both directions.
  EXPECT_TRUE(before(s, advance(s, 0x7FFFFFFFu)));
  EXPECT_TRUE(after(advance(s, 0x7FFFFFFFu), s));
}

TEST(Seq32, DistanceAndAdvanceAcrossWrap) {
  EXPECT_EQ(distance(S(0xFFFFFF00u), S(0x100)), 0x200u);
  EXPECT_EQ(distance(S(10), S(10)), 0u);
  EXPECT_EQ(advance(S(0xFFFFFFFFu), 1), S(0));
  EXPECT_EQ(advance(S(0xFFFFFF00u), 0x200), S(0x100));
  // 64-bit stream offsets fold in mod 2^32.
  EXPECT_EQ(advance(S(0), std::uint64_t{1} << 32 | 42), S(42));
  // Operator forms agree with the named helpers.
  EXPECT_EQ(S(0xFFFFFF00u) + 0x200u, S(0x100));
  EXPECT_EQ(S(0x100) - S(0xFFFFFF00u), 0x200);
}

TEST(Seq32, MinMaxAndComparatorAcrossWrap) {
  EXPECT_EQ(seq_max(S(0xFFFFFFF0u), S(0x10)), S(0x10));
  EXPECT_EQ(seq_min(S(0xFFFFFFF0u), S(0x10)), S(0xFFFFFFF0u));
  // A std::set ordered by SeqLess iterates in stream order even when the
  // working set straddles the wrap.
  std::set<Seq32, SeqLess> window{S(0x10), S(0xFFFFFFF0u), S(0x0), S(0x20)};
  std::vector<Seq32> order(window.begin(), window.end());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], S(0xFFFFFFF0u));
  EXPECT_EQ(order[1], S(0x0));
  EXPECT_EQ(order[2], S(0x10));
  EXPECT_EQ(order[3], S(0x20));
}

// -- wraparound property test ----------------------------------------------

struct RunResult {
  analysis::FlowAnalysis flow;
  bool completed = false;
};

RunResult run_lossy_transfer(Seq32 client_isn, Seq32 server_isn) {
  sim::Simulator sim;
  sim::LinkConfig down_cfg;
  down_cfg.prop_delay = Duration::millis(40);
  down_cfg.random_loss = 0.03;
  sim::LinkConfig up_cfg;
  up_cfg.prop_delay = Duration::millis(40);
  up_cfg.random_loss = 0.01;
  sim::Link down(sim, down_cfg, Rng(11));
  sim::Link up(sim, up_cfg, Rng(12));

  tcp::ConnectionConfig cfg;
  cfg.client_to_server = {ipv4_from_string("10.0.0.1"),
                          ipv4_from_string("192.168.1.1"), 40001, 80};
  tcp::RequestSpec req;
  req.response_bytes = 200'000;  // ~140 segments: crosses the wrap when
                                 // server_isn sits < 2^32 - 200'000 away
  cfg.requests.push_back(req);
  cfg.client_isn = client_isn;
  cfg.server_isn = server_isn;

  PacketTrace trace;
  tcp::Connection conn(sim, down, up, std::move(cfg), &trace);
  conn.start();
  sim.run_until(sim.now() + Duration::seconds(300.0));

  analysis::Analyzer analyzer;
  auto result = analyzer.analyze(trace);
  RunResult out;
  out.completed = conn.done() && conn.metrics().completed;
  if (result.flows.size() == 1) out.flow = std::move(result.flows[0]);
  return out;
}

TEST(Seq32Property, WrapMidTransferClassifiesIdentically) {
  // Control: small historical ISNs; the whole transfer stays far from the
  // wrap. Probe: ISNs just below 2^32, so snd_una/snd_nxt, every SACK edge
  // and every retransmission decision crosses 0 mid-flow. Identical links,
  // identical seeds — the packet schedule is byte-for-byte the same modulo
  // the sequence offset, so every classification output must match exactly.
  const RunResult lo = run_lossy_transfer(S(1000), S(5000));
  const RunResult hi = run_lossy_transfer(S(0xFFFFFFB0u), S(0xFFFFFF00u));

  ASSERT_TRUE(lo.completed);
  ASSERT_TRUE(hi.completed);
  // The probe really wrapped: isn + bytes overflows 2^32.
  EXPECT_LT(advance(S(0xFFFFFF00u), 200'000).raw(), 0xFFFFFF00u);

  const analysis::FlowAnalysis& a = lo.flow;
  const analysis::FlowAnalysis& b = hi.flow;
  EXPECT_GE(a.unique_bytes, 200'000u);  // payload (+1 for the FIN)
  EXPECT_EQ(a.unique_bytes, b.unique_bytes);
  EXPECT_EQ(a.data_segments, b.data_segments);
  EXPECT_EQ(a.retrans_segments, b.retrans_segments);
  EXPECT_EQ(a.timeout_retrans, b.timeout_retrans);
  EXPECT_EQ(a.fast_retrans, b.fast_retrans);
  EXPECT_EQ(a.transmission_time, b.transmission_time);
  EXPECT_EQ(a.stalled_time, b.stalled_time);
  EXPECT_EQ(a.rtt_samples_us, b.rtt_samples_us);
  EXPECT_EQ(a.rto_at_timeout_us, b.rto_at_timeout_us);
  EXPECT_EQ(a.inflight_on_ack, b.inflight_on_ack);
  EXPECT_EQ(a.init_rwnd_bytes, b.init_rwnd_bytes);
  EXPECT_EQ(a.had_zero_rwnd, b.had_zero_rwnd);

  // Loss at 3% over ~140 segments: the run is expected to produce stalls,
  // otherwise this property test exercises nothing.
  EXPECT_GT(a.retrans_segments, 0u);
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].start, b.stalls[i].start) << "stall " << i;
    EXPECT_EQ(a.stalls[i].end, b.stalls[i].end) << "stall " << i;
    EXPECT_EQ(a.stalls[i].duration, b.stalls[i].duration) << "stall " << i;
    EXPECT_EQ(a.stalls[i].cause, b.stalls[i].cause) << "stall " << i;
    EXPECT_EQ(a.stalls[i].retrans_cause, b.stalls[i].retrans_cause)
        << "stall " << i;
    EXPECT_EQ(a.stalls[i].f_double, b.stalls[i].f_double) << "stall " << i;
    EXPECT_EQ(a.stalls[i].state_at_stall, b.stalls[i].state_at_stall)
        << "stall " << i;
    EXPECT_EQ(a.stalls[i].in_flight, b.stalls[i].in_flight) << "stall " << i;
    EXPECT_EQ(a.stalls[i].cur_pkt_index, b.stalls[i].cur_pkt_index)
        << "stall " << i;
  }
}

}  // namespace
}  // namespace tapo::net
