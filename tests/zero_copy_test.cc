// Zero-copy data-path tests: batch analysis must be bit-identical to
// analyzing each demuxed view on its own, on randomized simulated
// workloads, view lifetimes must follow the sort-then-demux rule, and the
// pcap reader must keep its arena consistent across rejected/truncated
// frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "pcap/pcap.h"
#include "tapo/analyzer.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/profiles.h"

#include "support/expect_same_analysis.h"

namespace tapo::analysis {
namespace {

using test::expect_same_analysis;

/// Analyzes `trace` through Analyzer::analyze and asserts that it returns,
/// flow by flow, exactly what analyze_flow gives on each demuxed view.
void expect_batch_matches_per_view(const net::PacketTrace& trace) {
  const Analyzer analyzer;
  const FlowViewSet views = demux_flow_views(trace);
  const AnalysisResult whole = analyzer.analyze(trace);
  ASSERT_EQ(whole.flows.size(), views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    expect_same_analysis(analyzer.analyze_flow(views[i]), whole.flows[i]);
  }
}

/// Simulates `n_flows` flows of `profile` and merges their server-NIC
/// captures into one arena.
net::PacketTrace merged_trace(const workload::ServiceProfile& profile,
                              std::uint64_t seed, std::uint64_t n_flows) {
  Rng master(seed);
  net::PacketTrace merged;
  for (std::uint64_t f = 0; f < n_flows; ++f) {
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(profile, flow_rng, f);
    auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    if (!outcome.trace.has_value()) {
      ADD_FAILURE() << "flow " << f << " produced no capture";
      continue;
    }
    for (const auto& p : outcome.trace->packets()) merged.add(p);
  }
  return merged;
}

net::PacketTrace shuffled(const net::PacketTrace& trace, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(trace.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  std::shuffle(perm.begin(), perm.end(), rng);
  net::PacketTrace out;
  out.reserve(trace.size());
  for (std::uint32_t i : perm) out.add(trace[i]);
  return out;
}

struct ProfileCase {
  const char* name;
  workload::ServiceProfile profile;
};

std::vector<ProfileCase> all_profiles() {
  return {{"cloud_storage", workload::cloud_storage_profile()},
          {"software_download", workload::software_download_profile()},
          {"web_search", workload::web_search_profile()}};
}

TEST(ZeroCopyProperty, BatchAnalysisBitIdenticalToPerViewAnalysis) {
  for (const auto& [name, profile] : all_profiles()) {
    SCOPED_TRACE(name);
    net::PacketTrace trace = merged_trace(profile, /*seed=*/1234, 6);
    ASSERT_GT(trace.size(), 0u);
    trace.sort_by_time();  // interleave the flows chronologically
    expect_batch_matches_per_view(trace);
  }
}

TEST(ZeroCopyProperty, HoldsOnShuffledCaptureOrder) {
  // Demux preserves per-flow capture order whatever the global order is;
  // both entry points must agree on arbitrarily permuted traces too (their
  // output just reflects the garbled timestamps identically).
  for (const auto& [name, profile] : all_profiles()) {
    SCOPED_TRACE(name);
    const net::PacketTrace base = merged_trace(profile, /*seed=*/77, 4);
    ASSERT_GT(base.size(), 0u);
    const net::PacketTrace garbled = shuffled(base, /*seed=*/5);
    expect_batch_matches_per_view(garbled);
  }
}

TEST(ZeroCopyProperty, ViewsSurviveSortCalledBeforeDemux) {
  net::PacketTrace trace =
      merged_trace(workload::cloud_storage_profile(), /*seed=*/99, 4);
  // Shuffle, then follow the documented lifetime rule: sort FIRST, demux
  // after. The views handed out then point into the post-sort arena and
  // must stay valid for the whole analysis.
  net::PacketTrace work = shuffled(trace, /*seed=*/3);
  work.sort_by_time();
  const FlowViewSet views = demux_flow_views(work);
  ASSERT_GT(views.size(), 0u);
  const std::span<const net::CapturedPacket> arena = work.packets();
  std::size_t viewed = 0;
  for (const FlowView& v : views) {
    viewed += v.size();
    TimePoint prev = TimePoint::epoch();
    for (std::size_t i = 0; i < v.size(); ++i) {
      const net::CapturedPacket& cp = v.packet(i);
      // The reference really points into the trace arena...
      EXPECT_GE(&cp, arena.data());
      EXPECT_LT(&cp, arena.data() + arena.size());
      // ...and per-flow packets are time-ordered after the pre-demux sort.
      EXPECT_GE(cp.timestamp, prev);
      prev = cp.timestamp;
    }
  }
  // Every arena packet belongs to exactly one view.
  EXPECT_EQ(viewed, arena.size());
  EXPECT_EQ(views.pool_bytes(), arena.size() * sizeof(net::CapturedPacket*));
  // The sorted trace analyzes identically via both entry points.
  expect_batch_matches_per_view(work);
}

TEST(ZeroCopy, FlowViewSetSurvivesMove) {
  net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/11, 2);
  FlowViewSet views = demux_flow_views(trace);
  ASSERT_GT(views.size(), 0u);
  const std::size_t n = views.size();
  const net::CapturedPacket& first = views[0].packet(0);
  const FlowViewSet moved = std::move(views);
  ASSERT_EQ(moved.size(), n);
  // Spans chase the pointer pool's heap buffer across the move.
  EXPECT_EQ(&moved[0].packet(0), &first);
}

TEST(ZeroCopy, PacketRecordsStayCompact) {
  // The static_asserts enforce these at compile time; restating them here
  // keeps the flat-arena contract visible in test output.
  EXPECT_TRUE(std::is_trivially_copyable_v<net::CapturedPacket>);
  EXPECT_TRUE(std::is_trivially_copyable_v<net::TcpHeader>);
}

TEST(ZeroCopy, TraceBuilderRollbackDiscardsSlot) {
  net::PacketTrace trace;
  net::TraceBuilder builder(trace);
  net::CapturedPacket& a = builder.begin_packet();
  a.payload_len = 111;
  builder.begin_packet().payload_len = 222;
  builder.rollback_last();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].payload_len, 111u);
  builder.begin_packet().payload_len = 333;
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].payload_len, 333u);
}

// ---------------------------------------------------------------------------
// pcap reader: truncated-mid-packet regression. The scratch-buffer read
// loop must keep every complete record and drop the partial tail without
// corrupting the arena.
// ---------------------------------------------------------------------------

TEST(ZeroCopy, PcapTruncatedMidPacketKeepsCompleteRecords) {
  net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/42, 1);
  ASSERT_GE(trace.size(), 3u);

  std::stringstream full;
  pcap::write_stream(full, trace);
  const std::string bytes = full.str();

  // Walk the record framing to find where the final record's body starts,
  // then cut in the middle of that body.
  constexpr std::size_t kGlobalHeader = 24;
  constexpr std::size_t kRecordHeader = 16;
  std::size_t off = kGlobalHeader;
  std::size_t last_body_start = 0;
  std::size_t last_caplen = 0;
  while (off + kRecordHeader <= bytes.size()) {
    const auto u8 = [&](std::size_t i) {
      return static_cast<std::uint32_t>(
          static_cast<std::uint8_t>(bytes[off + i]));
    };
    const std::uint32_t caplen =
        u8(8) | (u8(9) << 8) | (u8(10) << 16) | (u8(11) << 24);
    last_body_start = off + kRecordHeader;
    last_caplen = caplen;
    off = last_body_start + caplen;
  }
  ASSERT_EQ(off, bytes.size()) << "framing walk must land on EOF";
  ASSERT_GT(last_caplen, 1u);

  const std::string cut = bytes.substr(0, last_body_start + last_caplen / 2);
  std::stringstream in(cut);
  pcap::ReadStats stats;
  const net::PacketTrace back = pcap::read_stream(in, &stats);

  ASSERT_EQ(back.size(), trace.size() - 1);
  EXPECT_EQ(stats.tcp_packets, trace.size() - 1);
  EXPECT_EQ(stats.records, trace.size());  // header of the cut record read
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp.us(), trace[i].timestamp.us());
    EXPECT_EQ(back[i].key, trace[i].key);
    EXPECT_EQ(back[i].tcp.seq, trace[i].tcp.seq);
    EXPECT_EQ(back[i].payload_len, trace[i].payload_len);
  }
  // The truncated capture still demuxes and analyzes cleanly via views.
  const Analyzer analyzer;
  const auto result = analyzer.analyze(back);
  EXPECT_GE(result.flows.size(), 1u);
}

}  // namespace
}  // namespace tapo::analysis
