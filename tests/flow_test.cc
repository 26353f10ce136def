// Tests for flow demultiplexing and handshake parameter extraction.
#include <gtest/gtest.h>

#include "tapo/flow.h"

namespace tapo::analysis {
namespace {

net::CapturedPacket pkt(std::int64_t us, std::uint32_t sip, std::uint32_t dip,
                        std::uint16_t sport, std::uint16_t dport,
                        std::uint32_t payload = 0) {
  net::CapturedPacket p;
  p.timestamp = TimePoint::from_us(us);
  p.key = {sip, dip, sport, dport};
  p.tcp.src_port = sport;
  p.tcp.dst_port = dport;
  p.tcp.flags.ack = true;
  p.payload_len = payload;
  return p;
}

TEST(Demux, SplitsByFourTuple) {
  net::PacketTrace trace;
  // Two connections, interleaved.
  trace.add(pkt(1, 10, 20, 1111, 80, 100));
  trace.add(pkt(2, 11, 20, 2222, 80, 100));
  trace.add(pkt(3, 20, 10, 80, 1111, 500));
  trace.add(pkt(4, 20, 11, 80, 2222, 500));
  const auto flows = demux_flow_views(trace);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].size(), 2u);
  EXPECT_EQ(flows[1].size(), 2u);
}

TEST(Demux, BothDirectionsSameFlow) {
  net::PacketTrace trace;
  trace.add(pkt(1, 10, 20, 1111, 80, 100));
  trace.add(pkt(2, 20, 10, 80, 1111, 1000));
  const auto flows = demux_flow_views(trace);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].size(), 2u);
  EXPECT_NE(flows[0].packet(0).key, flows[0].server_to_client);
  EXPECT_EQ(flows[0].packet(1).key, flows[0].server_to_client);
}

TEST(Demux, ServerIdentifiedBySynAck) {
  net::PacketTrace trace;
  auto syn = pkt(1, 10, 20, 1111, 80);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  trace.add(syn);
  auto synack = pkt(2, 20, 10, 80, 1111);
  synack.tcp.flags.syn = true;
  synack.tcp.flags.ack = true;
  trace.add(synack);
  // Client sends MORE payload than the server here — SYN-ACK still wins.
  trace.add(pkt(3, 10, 20, 1111, 80, 5000));
  const auto flows = demux_flow_views(trace);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].server_to_client.src_ip, 20u);
  EXPECT_TRUE(flows[0].saw_syn);
  EXPECT_TRUE(flows[0].saw_synack);
}

TEST(Demux, ServerIdentifiedByPayloadWithoutHandshake) {
  net::PacketTrace trace;
  trace.add(pkt(1, 10, 20, 1111, 80, 100));
  trace.add(pkt(2, 20, 10, 80, 1111, 9000));
  const auto flows = demux_flow_views(trace);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].server_to_client.src_ip, 20u);
}

TEST(Demux, ServerPortOptionOverrides) {
  net::PacketTrace trace;
  trace.add(pkt(1, 10, 20, 1111, 8080, 9000));  // "client" sends a lot
  trace.add(pkt(2, 20, 10, 8080, 1111, 10));
  DemuxOptions opts;
  opts.server_port = 8080;
  const auto flows = demux_flow_views(trace, opts);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].server_to_client.src_port, 8080);
}

TEST(Demux, ServerPortFallsBackWhenNeitherEndpointUsesIt) {
  // 10.0.0.9:5555 connects to 10.0.0.5:443. A server port that neither
  // endpoint uses must not decide the orientation: the handshake does.
  constexpr std::uint32_t kClient = 0x0a000009, kServer = 0x0a000005;
  net::PacketTrace trace;
  auto syn = pkt(1, kClient, kServer, 5555, 443);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  trace.add(syn);
  auto synack = pkt(2, kServer, kClient, 443, 5555);
  synack.tcp.flags.syn = true;
  trace.add(synack);
  trace.add(pkt(3, kServer, kClient, 443, 5555, 1000));
  for (const std::uint16_t port : {0, 80, 443}) {
    SCOPED_TRACE(port);
    DemuxOptions opts;
    opts.server_port = port;
    const auto flows = demux_flow_views(trace, opts);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].server_to_client,
              (net::FlowKey{kServer, kClient, 443, 5555}));
    EXPECT_TRUE(flows[0].saw_syn);
    EXPECT_TRUE(flows[0].saw_synack);
  }
}

TEST(Demux, HandshakeParamsExtracted) {
  net::PacketTrace trace;
  auto syn = pkt(1, 10, 20, 1111, 80);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  syn.tcp.seq = net::Seq32{999};
  syn.tcp.window = 5840;
  syn.tcp.mss = 1400;
  syn.tcp.sack_permitted = true;
  syn.tcp.window_scale = 7;
  trace.add(syn);
  auto synack = pkt(2, 20, 10, 80, 1111);
  synack.tcp.flags.syn = true;
  synack.tcp.flags.ack = true;
  synack.tcp.seq = net::Seq32{7777};
  trace.add(synack);
  auto ack = pkt(3, 10, 20, 1111, 80);
  ack.tcp.window = 100;  // scaled by 2^7 = 12800 bytes
  trace.add(ack);

  const auto flows = demux_flow_views(trace);
  ASSERT_EQ(flows.size(), 1u);
  const auto& f = flows[0];
  EXPECT_EQ(f.server_isn, net::Seq32{7777});
  EXPECT_EQ(f.mss, 1400);
  EXPECT_EQ(f.client_wscale, 7);
  EXPECT_EQ(f.syn_window, 5840u);
  EXPECT_EQ(f.init_rwnd_bytes, 100u << 7);
}

TEST(Demux, InitRwndFallsBackToSynWindow) {
  net::PacketTrace trace;
  auto syn = pkt(1, 10, 20, 1111, 80);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  syn.tcp.window = 4096;
  trace.add(syn);
  auto synack = pkt(2, 20, 10, 80, 1111);
  synack.tcp.flags.syn = true;
  synack.tcp.flags.ack = true;
  trace.add(synack);
  const auto flows = demux_flow_views(trace);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].init_rwnd_bytes, 4096u);
}

}  // namespace
}  // namespace tapo::analysis
