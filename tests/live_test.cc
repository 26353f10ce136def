// Tests for the streaming (live) analyzer: equivalence with offline
// analysis, idle/FIN finalization, and memory-budget eviction.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "tapo/live.h"
#include "util/memory_budget.h"
#include "workload/experiment.h"

#include "support/analysis_collector.h"

namespace tapo::analysis {
namespace {

using test::AnalysisCollector;

/// Builds an interleaved multi-flow trace from simulated service flows,
/// staggering flow start times by `stagger` (each flow's private simulator
/// starts at t = 0).
net::PacketTrace sample_trace(std::size_t flows, std::uint64_t seed = 21,
                              Duration stagger = Duration::zero()) {
  net::PacketTrace all;
  auto profile = workload::web_search_profile();
  Rng master(seed);
  for (std::size_t i = 0; i < flows; ++i) {
    Rng flow_rng = master.split();
    const auto sc = workload::draw_scenario(profile, flow_rng, i + 1);
    const auto outcome =
        workload::run_flow(sc, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    for (auto pkt : outcome.trace->packets()) {
      pkt.timestamp =
          pkt.timestamp + stagger * static_cast<std::int64_t>(i);
      all.add(std::move(pkt));
    }
  }
  all.sort_by_time();
  return all;
}

TEST(Live, MatchesOfflineAnalysis) {
  const auto trace = sample_trace(12);
  // Offline reference.
  Analyzer offline;
  const auto ref = offline.analyze(trace);
  std::map<std::string, std::size_t> ref_stalls;
  for (const auto& fa : ref.flows) {
    ref_stalls[fa.key.to_string()] = fa.stalls.size();
  }

  // Live run over the same packets.
  AnalysisCollector sink;
  LiveAnalyzer live({}, sink);
  for (const auto& pkt : trace.packets()) live.add_packet(pkt);
  live.flush();
  std::map<std::string, std::size_t> live_stalls;
  for (const auto& fa : sink.analyses) {
    live_stalls[fa.key.to_string()] = fa.stalls.size();
  }

  EXPECT_EQ(live.stats().packets, trace.size());
  EXPECT_EQ(live_stalls, ref_stalls);
  EXPECT_EQ(live.stats().flows_finalized, ref.flows.size());
}

TEST(Live, FinLingerFinalizesPromptly) {
  const auto trace = sample_trace(3, 21, Duration::seconds(30.0));
  LiveConfig cfg;
  cfg.fin_linger = Duration::seconds(1.0);
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);
  for (const auto& pkt : trace.packets()) live.add_packet(pkt);
  // The trace interleaves flows spanning seconds; earlier FIN'd flows are
  // finalized before the feed ends.
  EXPECT_GE(sink.analyses.size(), 1u);
  live.flush();
  EXPECT_EQ(sink.analyses.size(), 3u);
}

TEST(Live, IdleTimeoutWithoutFin) {
  LiveConfig cfg;
  cfg.idle_timeout = Duration::seconds(5.0);
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);

  auto pkt_at = [](std::int64_t us, std::uint16_t sport) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(us);
    p.key = {1, 2, sport, 80};
    p.payload_len = 100;
    p.tcp.flags.ack = true;
    return p;
  };
  live.add_packet(pkt_at(0, 1000));
  live.add_packet(pkt_at(100, 1000));
  // A second flow starts much later: the first idles out.
  live.add_packet(pkt_at(10'000'000, 2000));
  EXPECT_EQ(sink.analyses.size(), 1u);
  EXPECT_EQ(live.stats().active_flows, 1u);
}

TEST(Live, IdleReapFollowsLeastRecentActivity) {
  LiveConfig cfg;
  cfg.idle_timeout = Duration::seconds(5.0);
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);
  auto pkt = [](std::int64_t us, std::uint16_t port) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(us);
    p.key = {1, 2, port, 80};
    p.payload_len = 10;
    p.tcp.flags.ack = true;
    return p;
  };
  live.add_packet(pkt(0, 1));     // flow A
  live.add_packet(pkt(1000, 2));  // flow B
  live.add_packet(pkt(2000, 3));  // flow C
  live.add_packet(pkt(3000, 1));  // touch A: B, then C, are least recent
  EXPECT_TRUE(sink.analyses.empty());
  // Flow D arrives past the idle timeout of all three.
  live.add_packet(pkt(10'000'000, 4));
  std::vector<std::uint16_t> finalized_ports;
  for (const auto& fa : sink.analyses) {
    finalized_ports.push_back(fa.key.src_port == 80 ? fa.key.dst_port
                                                    : fa.key.src_port);
  }
  EXPECT_EQ(finalized_ports, (std::vector<std::uint16_t>{2, 3, 1}));
  EXPECT_EQ(live.stats().active_flows, 1u);
  EXPECT_EQ(live.stats().budget_evictions, 0u);
}

/// Budget whose soft limit, half of it, holds exactly `flows` first
/// arenas: 64 packet slots plus the analyzer's 512-byte per-flow charge.
std::size_t first_arena_budget(std::size_t flows) {
  return flows * (64 * sizeof(net::CapturedPacket) + 512) * 2;
}

TEST(Live, BudgetEvictionOrderIsLeastRecentlyActive) {
  util::MemoryBudget budget(first_arena_budget(2));
  LiveConfig cfg;
  cfg.mem_budget = &budget;
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);
  auto pkt = [](std::int64_t us, std::uint16_t port) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(us);
    p.key = {1, 2, port, 80};
    p.payload_len = 10;
    p.tcp.flags.ack = true;
    return p;
  };
  live.add_packet(pkt(0, 1));     // flow A
  live.add_packet(pkt(1000, 2));  // flow B
  live.add_packet(pkt(2000, 1));  // touch A: B is now least recently active
  live.add_packet(pkt(3000, 3));  // flow C -> evicts B, not A
  live.add_packet(pkt(4000, 4));  // flow D -> evicts A
  std::vector<std::uint16_t> evicted_ports;
  for (const auto& fa : sink.analyses) {
    evicted_ports.push_back(fa.key.src_port == 80 ? fa.key.dst_port
                                                  : fa.key.src_port);
  }
  EXPECT_EQ(evicted_ports, (std::vector<std::uint16_t>{2, 1}));
  EXPECT_EQ(live.stats().budget_evictions, 2u);
  EXPECT_EQ(live.stats().active_flows, 2u);
}

TEST(Live, BudgetEvictedFlowStillProducesAnalysis) {
  util::MemoryBudget budget(first_arena_budget(1));
  LiveConfig cfg;
  cfg.mem_budget = &budget;
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);
  // Give the evicted flow real content: three data packets from the server
  // endpoint so its analysis has observable segments.
  for (int i = 0; i < 3; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(i * 1000);
    p.key = {2, 1, 80, 1000};  // server -> client
    p.tcp.seq = net::Seq32{static_cast<std::uint32_t>(1 + i * 100)};
    p.payload_len = 100;
    p.tcp.flags.ack = true;
    live.add_packet(p);
  }
  net::CapturedPacket other;
  other.timestamp = TimePoint::from_us(10'000);
  other.key = {1, 2, 2000, 80};
  other.payload_len = 10;
  other.tcp.flags.ack = true;
  live.add_packet(other);  // no room for a second arena -> first evicted

  EXPECT_EQ(live.stats().budget_evictions, 1u);
  // Eviction went through full analysis.
  ASSERT_EQ(sink.analyses.size(), 1u);
  const FlowAnalysis& fa = sink.analyses.front();
  EXPECT_TRUE(fa.key.src_port == 80 || fa.key.dst_port == 80);
  EXPECT_EQ(fa.data_segments, 3u);
  EXPECT_EQ(fa.unique_bytes, 300u);
}

TEST(Live, ElephantFlowTruncated) {
  // Room for one 64-slot arena: the 65th packet would double it past the
  // soft limit, and no other flow is left to evict, so the elephant is
  // analyzed in pieces instead of outgrowing the budget.
  util::MemoryBudget budget(first_arena_budget(1));
  LiveConfig cfg;
  cfg.mem_budget = &budget;
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);
  const net::FlowKey key{1, 2, 1000, 80};
  for (int i = 0; i < 150; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(i * 100);
    p.key = key;
    p.tcp.seq = net::Seq32{static_cast<std::uint32_t>(1 + i * 100)};
    p.payload_len = 100;
    p.tcp.flags.ack = true;
    live.add_packet(p);
  }
  EXPECT_EQ(sink.analyses.size(), 2u);  // before packets 65 and 129
  EXPECT_EQ(live.stats().active_flows, 1u);
  live.flush();
  ASSERT_EQ(sink.analyses.size(), 3u);
  for (const auto& fa : sink.analyses) {
    EXPECT_EQ(fa.key.canonical(), key.canonical());
  }
  EXPECT_EQ(budget.resident(), 0u);
  EXPECT_LE(budget.high_water(), budget.limit());
}

TEST(Live, TruncationAccounting) {
  util::MemoryBudget budget(first_arena_budget(1));
  LiveConfig cfg;
  cfg.mem_budget = &budget;
  AnalysisCollector sink;
  LiveAnalyzer live(cfg, sink);
  for (int i = 0; i < 150; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(i * 100);
    p.key = {2, 1, 80, 1000};
    p.tcp.seq = net::Seq32{static_cast<std::uint32_t>(1 + i * 100)};
    p.payload_len = 100;
    p.tcp.flags.ack = true;
    live.add_packet(p);
  }
  // Restarted before packets 65 and 129; 22 remain buffered until flush.
  EXPECT_EQ(live.stats().budget_evictions, 2u);
  EXPECT_EQ(live.stats().flows_finalized, 2u);
  live.flush();
  EXPECT_EQ(live.stats().budget_evictions, 2u);  // flush is not an eviction
  EXPECT_EQ(live.stats().flows_finalized, 3u);
  std::vector<std::uint64_t> segment_counts;
  for (const auto& fa : sink.analyses) {
    segment_counts.push_back(fa.data_segments);
  }
  EXPECT_EQ(segment_counts, (std::vector<std::uint64_t>{64, 64, 22}));
  EXPECT_EQ(live.stats().packets, 150u);
}

TEST(Live, FlushOnEmptyIsSafe) {
  AnalysisCollector sink;
  LiveAnalyzer live({}, sink);
  EXPECT_NO_THROW(live.flush());
  EXPECT_EQ(live.stats().flows_finalized, 0u);
  EXPECT_EQ(live.stats().peak_active_flows, 0u);
}

TEST(Live, PeakActiveFlowsCountsInterleavedFlows) {
  // N flows whose packets interleave round-robin are all open at once, so
  // the table peaks at exactly N; flush() empties it but keeps the peak.
  constexpr std::uint16_t kFlows = 5;
  AnalysisCollector sink;
  LiveAnalyzer live({}, sink);
  for (int round = 0; round < 3; ++round) {
    for (std::uint16_t port = 1; port <= kFlows; ++port) {
      net::CapturedPacket p;
      p.timestamp = TimePoint::from_us(round * 1000 + port);
      p.key = {1, 2, port, 80};
      p.payload_len = 10;
      p.tcp.flags.ack = true;
      live.add_packet(p);
    }
  }
  EXPECT_EQ(live.stats().active_flows, kFlows);
  EXPECT_EQ(live.stats().peak_active_flows, kFlows);
  live.flush();
  EXPECT_EQ(live.stats().active_flows, 0u);
  EXPECT_EQ(live.stats().peak_active_flows, kFlows);
  EXPECT_EQ(sink.analyses.size(), kFlows);
}

}  // namespace
}  // namespace tapo::analysis
