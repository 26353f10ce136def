// Robustness tests: random/adversarial inputs must never crash the parsers
// or the analyzer, and invariants must survive garbage.
#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "net/ipv4.h"
#include "net/tcp_header.h"
#include "pcap/pcap.h"
#include "tapo/analyzer.h"
#include "util/rng.h"

#include "support/pcap_files.h"

namespace tapo {
namespace {

TEST(Fuzz, TcpHeaderParseNeverCrashes) {
  Rng rng(1234);
  std::array<std::uint8_t, net::kTcpMaxHeaderLen + 16> buf{};
  for (int iter = 0; iter < 50'000; ++iter) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(buf.size())));
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    net::TcpHeader h;
    std::size_t hlen = 0;
    const bool ok =
        net::TcpHeader::parse(std::span(buf).subspan(0, len), h, hlen);
    if (ok) {
      EXPECT_LE(hlen, len);
      EXPECT_GE(hlen, net::kTcpMinHeaderLen);
      EXPECT_LE(h.sack_blocks.size(), 4u);
    }
  }
}

TEST(Fuzz, Ipv4ParseNeverCrashes) {
  Rng rng(77);
  std::array<std::uint8_t, 64> buf{};
  for (int iter = 0; iter < 50'000; ++iter) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(buf.size())));
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    net::Ipv4Header h;
    std::size_t hlen = 0;
    if (net::Ipv4Header::parse(std::span(buf).subspan(0, len), h, hlen)) {
      EXPECT_LE(hlen, len);
      EXPECT_GE(h.total_length, hlen);
    }
  }
}

TEST(Fuzz, PcapReaderSurvivesCorruption) {
  // Take a valid file and flip random bytes; the reader must either parse
  // a prefix, skip records, or throw — never crash or loop forever. The
  // file spans more than two of the reader's 16 KiB read blocks, and the
  // streaming reader (one-packet chunks) must agree with read_stream on
  // every input: the same packets and ReadStats, or the same message.
  net::PacketTrace trace;
  for (int i = 0; i < 250; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(i * 1000);
    p.key = {1, 2, 1000, 80};
    p.tcp.seq = net::Seq32{static_cast<std::uint32_t>(i)};
    p.payload_len = 100;
    trace.add(p);
  }
  std::stringstream base;
  pcap::write_stream(base, trace);
  const std::string good = base.str();
  ASSERT_GT(good.size(), 2u * 16 * 1024);

  Rng rng(5);
  for (int iter = 0; iter < 2'000; ++iter) {
    std::string bad = good;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bad.size() - 1)));
      bad[pos] = static_cast<char>(rng.next_u64());
    }
    const test::ReadOutcome batch = test::read_batch(bad);
    // Corruption can split records, not explode.
    EXPECT_LE(batch.packets.size(), 10 * trace.size());
    test::expect_same_outcome(batch, test::read_chunked(bad, 1));
  }
}

TEST(Fuzz, AnalyzerSurvivesRandomTraces) {
  // Random garbage "packets" (valid structs, nonsense semantics): the
  // analyzer must not crash and its outputs must respect invariants.
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    net::PacketTrace trace;
    std::int64_t t = 0;
    const int n = static_cast<int>(rng.uniform_int(2, 120));
    for (int i = 0; i < n; ++i) {
      t += rng.uniform_int(0, 400'000);
      net::CapturedPacket p;
      p.timestamp = TimePoint::from_us(t);
      const bool from_server = rng.chance(0.5);
      p.key = from_server ? net::FlowKey{2, 1, 80, 1000}
                          : net::FlowKey{1, 2, 1000, 80};
      p.tcp.seq = net::Seq32{static_cast<std::uint32_t>(rng.next_u64() % 100'000)};
      p.tcp.ack = net::Seq32{static_cast<std::uint32_t>(rng.next_u64() % 100'000)};
      p.tcp.flags.ack = rng.chance(0.9);
      p.tcp.flags.syn = rng.chance(0.05);
      p.tcp.flags.fin = rng.chance(0.05);
      p.tcp.window = static_cast<std::uint16_t>(rng.next_u64());
      p.payload_len = static_cast<std::uint32_t>(rng.uniform_int(0, 1448));
      if (rng.chance(0.2)) {
        const std::uint32_t s = static_cast<std::uint32_t>(rng.next_u64() % 100'000);
        p.tcp.sack_blocks.push_back({net::Seq32{s}, net::Seq32{s + 1448}});
      }
      trace.add(p);
    }
    analysis::Analyzer analyzer;
    const auto result = analyzer.analyze(trace);
    for (const auto& fa : result.flows) {
      EXPECT_GE(fa.stall_ratio, 0.0);
      for (const auto& s : fa.stalls) {
        EXPECT_GT(s.duration, Duration::zero());
        EXPECT_GE(s.rel_position, 0.0);
        EXPECT_LE(s.rel_position, 1.0);
      }
      EXPECT_EQ(fa.retrans_segments, fa.timeout_retrans + fa.fast_retrans);
    }
  }
}

TEST(Fuzz, DemuxHandlesManyFlows) {
  Rng rng(3);
  net::PacketTrace trace;
  for (int i = 0; i < 5'000; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(i);
    p.key = {static_cast<std::uint32_t>(rng.uniform_int(1, 50)),
             static_cast<std::uint32_t>(rng.uniform_int(1, 50)),
             static_cast<std::uint16_t>(rng.uniform_int(1, 100)),
             static_cast<std::uint16_t>(rng.uniform_int(1, 100))};
    p.payload_len = 100;
    trace.add(p);
  }
  const auto flows = analysis::demux_flow_views(trace);
  std::size_t total = 0;
  for (const auto& f : flows) total += f.size();
  EXPECT_EQ(total, 5'000u);  // every packet lands in exactly one flow
}

TEST(Fuzz, AnalyzerHandlesSingleDirectionTrace) {
  // Captures sometimes miss one direction entirely.
  net::PacketTrace trace;
  for (int i = 0; i < 30; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(i * 50'000);
    p.key = {2, 1, 80, 1000};
    p.tcp.seq = net::Seq32{1 + static_cast<std::uint32_t>(i) * 1448};
    p.tcp.flags.ack = true;
    p.payload_len = 1448;
    trace.add(p);
  }
  analysis::Analyzer analyzer;
  const auto result = analyzer.analyze(trace);
  ASSERT_EQ(result.flows.size(), 1u);
  // No ACKs -> no RTT samples -> no stall detection, but counters work.
  EXPECT_EQ(result.flows[0].data_segments, 30u);
  EXPECT_TRUE(result.flows[0].stalls.empty());
}

TEST(Fuzz, AnalyzerHandlesDuplicateTimestamps) {
  net::PacketTrace trace;
  for (int i = 0; i < 20; ++i) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(1000);  // all identical
    p.key = i % 2 ? net::FlowKey{2, 1, 80, 1000} : net::FlowKey{1, 2, 1000, 80};
    p.tcp.seq = net::Seq32{static_cast<std::uint32_t>(i)};
    p.tcp.flags.ack = true;
    p.payload_len = i % 2 ? 100 : 0;
    trace.add(p);
  }
  analysis::Analyzer analyzer;
  EXPECT_NO_THROW(analyzer.analyze(trace));
}

}  // namespace
}  // namespace tapo
