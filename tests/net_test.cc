// Tests for the net library: endian helpers, checksums, IPv4/TCP header
// wire round-trips, flow keys and packet traces.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "net/checksum.h"
#include "net/endian.h"
#include "net/ipv4.h"
#include "net/tcp_header.h"
#include "net/trace.h"

namespace tapo::net {
namespace {

TEST(Endian, RoundTrip) {
  std::array<std::uint8_t, 8> buf{};
  put_u16(buf, 0, 0xbeef);
  put_u32(buf, 2, 0xdeadc0de);
  put_u8(buf, 6, 0x42);
  EXPECT_EQ(get_u16(buf, 0), 0xbeef);
  EXPECT_EQ(get_u32(buf, 2), 0xdeadc0deu);
  EXPECT_EQ(get_u8(buf, 6), 0x42);
  // Big-endian layout on the wire.
  EXPECT_EQ(buf[0], 0xbe);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(buf[2], 0xde);
}

TEST(Checksum, Rfc1071Example) {
  // Example bytes from RFC 1071 discussions: 00 01 f2 03 f4 f5 f6 f7.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2 -> ~ = 0x220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLength) {
  const std::vector<std::uint8_t> data = {0x01, 0x02, 0x03};
  // Words: 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(Checksum, ValidatesToZero) {
  // A buffer with its own checksum folded in verifies to 0.
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34,
                                    0x40, 0x00, 0x40, 0x06, 0x00, 0x00,
                                    0x0a, 0x00, 0x00, 0x01, 0xc0, 0xa8,
                                    0x01, 0x01};
  const std::uint16_t csum = internet_checksum(data);
  put_u16(data, 10, csum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Ipv4, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.src = ipv4_from_string("10.1.2.3");
  h.dst = ipv4_from_string("192.168.1.1");
  h.total_length = 40;
  h.identification = 0x1234;
  h.ttl = 63;
  std::array<std::uint8_t, kIpv4HeaderLen> buf{};
  h.serialize(buf);

  Ipv4Header p;
  std::size_t hlen = 0;
  ASSERT_TRUE(Ipv4Header::parse(buf, p, hlen));
  EXPECT_EQ(hlen, kIpv4HeaderLen);
  EXPECT_EQ(p.src, h.src);
  EXPECT_EQ(p.dst, h.dst);
  EXPECT_EQ(p.total_length, 40);
  EXPECT_EQ(p.ttl, 63);
  EXPECT_EQ(p.protocol, kProtoTcp);
  // Serialized header checksums to zero.
  EXPECT_EQ(internet_checksum(buf), 0);
}

TEST(Ipv4, ParseRejectsBadInput) {
  Ipv4Header p;
  std::size_t hlen = 0;
  std::array<std::uint8_t, 10> shorty{};
  EXPECT_FALSE(Ipv4Header::parse(shorty, p, hlen));
  std::array<std::uint8_t, kIpv4HeaderLen> v6{};
  v6[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::parse(v6, p, hlen));
}

TEST(Ipv4, StringConversions) {
  EXPECT_EQ(ipv4_to_string(0xc0a80101u), "192.168.1.1");
  EXPECT_EQ(ipv4_from_string("192.168.1.1"), 0xc0a80101u);
  EXPECT_EQ(ipv4_from_string(ipv4_to_string(0x0a000001u)), 0x0a000001u);
}

TEST(TcpFlags, ByteRoundTrip) {
  for (int b = 0; b < 32; ++b) {
    const TcpFlags f = TcpFlags::from_byte(static_cast<std::uint8_t>(b));
    EXPECT_EQ(f.to_byte(), b & 0x1f);
  }
  TcpFlags f;
  f.syn = true;
  f.ack = true;
  EXPECT_EQ(f.to_byte(), 0x12);
}

TEST(TcpHeader, MinimalRoundTrip) {
  TcpHeader h;
  h.src_port = 80;
  h.dst_port = 40000;
  h.seq = Seq32{0x01020304};
  h.ack = Seq32{0xa0b0c0d0};
  h.flags.ack = true;
  h.window = 5840;

  std::array<std::uint8_t, kTcpMaxHeaderLen> buf{};
  const std::size_t n = h.serialize(buf);
  EXPECT_EQ(n, kTcpMinHeaderLen);

  TcpHeader p;
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(std::span(buf).subspan(0, n), p, hlen));
  EXPECT_EQ(hlen, n);
  EXPECT_EQ(p.src_port, 80);
  EXPECT_EQ(p.dst_port, 40000);
  EXPECT_EQ(p.seq, Seq32{0x01020304});
  EXPECT_EQ(p.ack, Seq32{0xa0b0c0d0});
  EXPECT_TRUE(p.flags.ack);
  EXPECT_EQ(p.window, 5840);
  EXPECT_FALSE(p.mss.has_value());
  EXPECT_TRUE(p.sack_blocks.empty());
}

TEST(TcpHeader, SynOptionsRoundTrip) {
  TcpHeader h;
  h.flags.syn = true;
  h.mss = 1448;
  h.window_scale = 7;
  h.sack_permitted = true;
  h.timestamps = TcpTimestamps{12345, 0};

  std::array<std::uint8_t, kTcpMaxHeaderLen> buf{};
  const std::size_t n = h.serialize(buf);
  EXPECT_GT(n, kTcpMinHeaderLen);
  EXPECT_EQ(n % 4, 0u);

  TcpHeader p;
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(std::span(buf).subspan(0, n), p, hlen));
  ASSERT_TRUE(p.mss.has_value());
  EXPECT_EQ(*p.mss, 1448);
  ASSERT_TRUE(p.window_scale.has_value());
  EXPECT_EQ(*p.window_scale, 7);
  EXPECT_TRUE(p.sack_permitted);
  ASSERT_TRUE(p.timestamps.has_value());
  EXPECT_EQ(p.timestamps->value, 12345u);
}

TEST(TcpHeader, SackBlocksRoundTrip) {
  TcpHeader h;
  h.flags.ack = true;
  h.sack_blocks = {{Seq32{1000}, Seq32{2448}},
                   {Seq32{3896}, Seq32{5344}},
                   {Seq32{6792}, Seq32{8240}}};

  std::array<std::uint8_t, kTcpMaxHeaderLen> buf{};
  const std::size_t n = h.serialize(buf);
  TcpHeader p;
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(std::span(buf).subspan(0, n), p, hlen));
  ASSERT_EQ(p.sack_blocks.size(), 3u);
  EXPECT_EQ(p.sack_blocks[0], (SackBlock{Seq32{1000}, Seq32{2448}}));
  EXPECT_EQ(p.sack_blocks[2], (SackBlock{Seq32{6792}, Seq32{8240}}));
}

TEST(TcpHeader, AtMostFourSackBlocksSerialized) {
  TcpHeader h;
  h.sack_blocks = {{Seq32{1}, Seq32{2}},
                   {Seq32{3}, Seq32{4}},
                   {Seq32{5}, Seq32{6}},
                   {Seq32{7}, Seq32{8}},
                   {Seq32{9}, Seq32{10}}};
  std::array<std::uint8_t, kTcpMaxHeaderLen> buf{};
  const std::size_t n = h.serialize(buf);
  ASSERT_LE(n, kTcpMaxHeaderLen);
  TcpHeader p;
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(std::span(buf).subspan(0, n), p, hlen));
  EXPECT_EQ(p.sack_blocks.size(), 4u);
}

TEST(TcpHeader, ParseRejectsMalformed) {
  TcpHeader p;
  std::size_t hlen = 0;
  std::array<std::uint8_t, 10> shorty{};
  EXPECT_FALSE(TcpHeader::parse(shorty, p, hlen));

  // Data offset claims more than the buffer holds.
  std::array<std::uint8_t, kTcpMinHeaderLen> bad{};
  bad[12] = 0xf0;  // 60-byte header in a 20-byte buffer
  EXPECT_FALSE(TcpHeader::parse(bad, p, hlen));

  // Truncated option.
  std::array<std::uint8_t, 24> opt{};
  opt[12] = 0x60;  // 24-byte header
  opt[20] = 2;     // MSS option kind
  opt[21] = 10;    // bogus length beyond header
  EXPECT_FALSE(TcpHeader::parse(opt, p, hlen));
}

TEST(TcpHeader, UnknownOptionSkipped) {
  TcpHeader h;
  h.mss = 1460;
  std::array<std::uint8_t, kTcpMaxHeaderLen> buf{};
  std::size_t n = h.serialize(buf);
  // Replace the MSS option with an unknown kind 254 of same length.
  buf[kTcpMinHeaderLen] = 254;
  TcpHeader p;
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(std::span(buf).subspan(0, n), p, hlen));
  EXPECT_FALSE(p.mss.has_value());
}

TEST(FlowKey, ReversedAndCanonical) {
  const FlowKey k{0x0a000001, 0xc0a80101, 40000, 80};
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.src_ip, k.dst_ip);
  EXPECT_EQ(r.src_port, k.dst_port);
  EXPECT_EQ(k.canonical(), r.canonical());
  EXPECT_TRUE(k.canonical() == k || k.canonical() == r);
}

TEST(FlowKey, HashDistinguishes) {
  FlowKeyHash h;
  const FlowKey a{1, 2, 3, 4};
  const FlowKey b{1, 2, 3, 5};
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(FlowKey{1, 2, 3, 4}));
}

TEST(FlowKey, ToString) {
  const FlowKey k{0x0a000001, 0xc0a80101, 40000, 80};
  EXPECT_EQ(k.to_string(), "10.0.0.1:40000 -> 192.168.1.1:80");
}

TEST(CapturedPacket, EndSeqCountsSynFin) {
  CapturedPacket p;
  p.tcp.seq = Seq32{100};
  p.payload_len = 10;
  EXPECT_EQ(p.end_seq(), Seq32{110});
  p.tcp.flags.syn = true;
  EXPECT_EQ(p.end_seq(), Seq32{111});
  p.tcp.flags.fin = true;
  EXPECT_EQ(p.end_seq(), Seq32{112});
}

TEST(PacketTrace, SortByTimeIsStable) {
  PacketTrace t;
  CapturedPacket a;
  a.timestamp = TimePoint::from_us(200);
  a.tcp.seq = Seq32{1};
  CapturedPacket b;
  b.timestamp = TimePoint::from_us(100);
  b.tcp.seq = Seq32{2};
  CapturedPacket c;
  c.timestamp = TimePoint::from_us(200);
  c.tcp.seq = Seq32{3};
  t.add(a);
  t.add(b);
  t.add(c);
  t.sort_by_time();
  EXPECT_EQ(t[0].tcp.seq, Seq32{2});
  EXPECT_EQ(t[1].tcp.seq, Seq32{1});  // stable: a before c
  EXPECT_EQ(t[2].tcp.seq, Seq32{3});
}

TEST(PacketTrace, CapacityAfterAppendPredictsGrowth) {
  // Across the 64 -> 128 -> 256 -> 512 growth steps, the projection taken
  // before each append equals the capacity the append leaves behind.
  PacketTrace t;
  EXPECT_EQ(t.capacity_bytes(), 0u);
  for (int i = 0; i < 300; ++i) {
    const std::size_t projected = t.capacity_bytes_after_append();
    t.append();
    ASSERT_EQ(projected, t.capacity_bytes()) << "after append " << i + 1;
  }
  EXPECT_EQ(t.capacity_bytes(), 512 * sizeof(CapturedPacket));
}

}  // namespace
}  // namespace tapo::net
