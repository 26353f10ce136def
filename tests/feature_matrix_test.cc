// Property sweep across the sender feature matrix: every combination of
// optional mechanisms must preserve reliability and analyzer invariants
// under loss.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "net/ipv4.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tapo/report.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace tapo {
namespace {

struct Features {
  bool pacing;
  tcp::RecoveryMechanism recovery;
  bool adaptive_srto;
};

using Param = std::tuple<int /*feature preset*/, double /*loss*/>;

// Preset numbers appear in the test names, so each keeps its number: a new
// preset takes a new one, and a removed one leaves a gap.
constexpr int kPresets[] = {0, 1, 5, 6, 7, 8};

Features preset(int i) {
  switch (i) {
    case 0: return {false, tcp::RecoveryMechanism::kNative, false};
    case 1: return {true, tcp::RecoveryMechanism::kNative, false};
    case 5: return {false, tcp::RecoveryMechanism::kTlp, false};
    case 6: return {false, tcp::RecoveryMechanism::kSrto, false};
    case 7: return {false, tcp::RecoveryMechanism::kSrto, true};
    case 8: return {true, tcp::RecoveryMechanism::kSrto, true};
    default: return preset(0);
  }
}

class FeatureMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(FeatureMatrix, ReliableAndAnalyzable) {
  const auto [idx, loss] = GetParam();
  const Features f = preset(idx);

  sim::Simulator sim;
  sim::LinkConfig down_cfg;
  down_cfg.prop_delay = Duration::millis(60);
  down_cfg.random_loss = loss;
  down_cfg.jitter_mean = Duration::millis(2);
  sim::LinkConfig up_cfg;
  up_cfg.prop_delay = Duration::millis(60);
  up_cfg.random_loss = loss / 3;
  sim::Link down(sim, down_cfg, Rng(1000 + static_cast<std::uint64_t>(idx)));
  sim::Link up(sim, up_cfg, Rng(2000 + static_cast<std::uint64_t>(idx)));

  tcp::ConnectionConfig cfg;
  cfg.client_to_server = {net::ipv4_from_string("10.0.0.1"),
                          net::ipv4_from_string("192.168.1.1"), 40001, 80};
  cfg.sender.pacing = f.pacing;
  cfg.sender.recovery = f.recovery;
  cfg.sender.srto.adaptive = f.adaptive_srto;
  tcp::RequestSpec req;
  req.response_bytes = 120'000;
  cfg.requests.push_back(req);

  net::PacketTrace trace;
  tcp::Connection conn(sim, down, up, cfg, &trace);
  conn.start();
  sim.run_until(sim.now() + Duration::seconds(900.0));

  // Reliability: the transfer always completes.
  ASSERT_TRUE(conn.done()) << "preset " << idx << " loss " << loss;
  ASSERT_TRUE(conn.metrics().completed);

  // Analyzer invariants hold on the resulting trace.
  analysis::Analyzer analyzer;
  const auto result = analyzer.analyze(trace);
  ASSERT_EQ(result.flows.size(), 1u);
  const auto& fa = result.flows[0];
  EXPECT_EQ(fa.unique_bytes, 120'001u);  // data + FIN
  EXPECT_LE(fa.stalled_time, fa.transmission_time);
  EXPECT_EQ(fa.retrans_segments, fa.timeout_retrans + fa.fast_retrans);
  EXPECT_EQ(fa.retrans_segments, conn.sender().stats().retransmissions);
  for (const auto& s : fa.stalls) {
    EXPECT_GT(s.duration, Duration::zero());
    if (s.cause == analysis::StallCause::kRetransmission) {
      EXPECT_NE(s.retrans_cause, analysis::RetransCause::kNone);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFeaturesAllLosses, FeatureMatrix,
    ::testing::Combine(::testing::ValuesIn(kPresets),
                       ::testing::Values(0.0, 0.03, 0.10, 0.20)));

}  // namespace
}  // namespace tapo
