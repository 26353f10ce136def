// Tests for the pcap codec: round-trips, foreign-endian and nanosecond
// files, Ethernet framing, and malformed input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <vector>

#include "net/checksum.h"
#include "net/ipv4.h"
#include "pcap/pcap.h"
#include "util/rng.h"

namespace tapo::pcap {
namespace {

net::CapturedPacket make_pkt(std::int64_t us, std::uint32_t seq,
                             std::uint32_t payload, bool from_server) {
  net::CapturedPacket p;
  p.timestamp = TimePoint::from_us(us);
  if (from_server) {
    p.key = {net::ipv4_from_string("192.168.1.1"),
             net::ipv4_from_string("10.0.0.1"), 80, 40000};
  } else {
    p.key = {net::ipv4_from_string("10.0.0.1"),
             net::ipv4_from_string("192.168.1.1"), 40000, 80};
  }
  p.tcp.seq = net::Seq32{seq};
  p.tcp.ack = net::Seq32{1};
  p.tcp.flags.ack = true;
  p.tcp.window = 1000;
  p.payload_len = payload;
  return p;
}

TEST(Pcap, StreamRoundTrip) {
  net::PacketTrace trace;
  auto syn = make_pkt(1'500'000, 0, 0, false);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  syn.tcp.mss = 1448;
  syn.tcp.sack_permitted = true;
  syn.tcp.window_scale = 7;
  trace.add(syn);
  trace.add(make_pkt(1'600'123, 1, 1448, true));
  auto ack = make_pkt(1'700'456, 1, 0, false);
  ack.tcp.sack_blocks = {{net::Seq32{2897}, net::Seq32{4345}}};
  trace.add(ack);

  std::stringstream ss;
  write_stream(ss, trace);

  ReadStats stats;
  const auto back = read_stream(ss, &stats);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.tcp_packets, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(back.size(), 3u);

  EXPECT_EQ(back[0].timestamp.us(), 1'500'000);
  EXPECT_TRUE(back[0].tcp.flags.syn);
  ASSERT_TRUE(back[0].tcp.mss.has_value());
  EXPECT_EQ(*back[0].tcp.mss, 1448);
  EXPECT_TRUE(back[0].tcp.sack_permitted);
  EXPECT_EQ(back[0].key.src_port, 40000);

  EXPECT_EQ(back[1].timestamp.us(), 1'600'123);
  EXPECT_EQ(back[1].payload_len, 1448u);
  EXPECT_EQ(back[1].key.src_ip, net::ipv4_from_string("192.168.1.1"));

  ASSERT_EQ(back[2].tcp.sack_blocks.size(), 1u);
  EXPECT_EQ(back[2].tcp.sack_blocks[0],
            (net::SackBlock{net::Seq32{2897}, net::Seq32{4345}}));
}

TEST(Pcap, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tapo_test.pcap").string();
  net::PacketTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.add(make_pkt(1000 * i, 1 + 1448 * i, 1448, i % 2 == 0));
  }
  write_file(path, trace);
  ReadStats stats;
  const auto back = read_file(path, &stats);
  EXPECT_EQ(back.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(back[i].timestamp.us(), 1000 * i);
    EXPECT_EQ(back[i].tcp.seq.raw(), 1u + 1448u * i);
  }
  std::remove(path.c_str());
}

TEST(Pcap, WrittenChecksumsVerifyOverTheWireSegment) {
  // The writer sums only the header bytes: the zero payload it never
  // writes adds nothing to a one's-complement sum. Zero-extended back to
  // its wire length, every record whose capture holds the full headers
  // must carry valid IPv4 and TCP checksums.
  net::PacketTrace trace;
  for (const std::uint32_t payload : {0u, 1u, 2u, 37u, 1447u, 1448u}) {
    const auto plain = make_pkt(1000 + payload, 7 * payload, payload,
                                payload % 2 == 0);
    trace.add(plain);
    auto with_options = plain;  // 44-byte TCP header
    with_options.tcp.timestamps = net::TcpTimestamps{0x12345678, 0x9abcdef0};
    with_options.tcp.sack_blocks = {{net::Seq32{100}, net::Seq32{200}}};
    trace.add(with_options);
  }
  // Snaplens 40 and 54 cut the 64-byte headers of the packets with
  // options, but hold the plain packets' 40.
  for (const std::uint32_t snaplen : {40u, 54u, 128u, 65535u}) {
    SCOPED_TRACE(snaplen);
    std::stringstream ss;
    write_stream(ss, trace, WriteOptions{.snaplen = snaplen});
    const std::string file = ss.str();
    const auto u32 = [&file](std::size_t at) {
      std::uint32_t v = 0;
      for (int i = 3; i >= 0; --i) {
        v = (v << 8) | static_cast<std::uint8_t>(file[at + i]);
      }
      return v;
    };
    std::size_t records = 0;
    std::size_t verified = 0;
    for (std::size_t off = 24; off < file.size(); ++records) {
      const std::uint32_t caplen = u32(off + 8);
      const std::uint32_t wire_len = u32(off + 12);
      std::vector<std::uint8_t> seg(file.begin() + off + 16,
                                    file.begin() + off + 16 + caplen);
      off += 16 + caplen;
      const std::size_t tcp_hlen =
          caplen > net::kIpv4HeaderLen + 12
              ? std::size_t{4} * (seg[net::kIpv4HeaderLen + 12] >> 4)
              : 0;
      if (tcp_hlen == 0 || caplen < net::kIpv4HeaderLen + tcp_hlen) continue;
      seg.resize(wire_len, 0);
      EXPECT_EQ(net::internet_checksum(std::span(seg).first(net::kIpv4HeaderLen)),
                0)
          << "record " << records;
      // Pseudo-header (source, destination, zero, protocol, TCP length),
      // then the whole zero-extended segment.
      const std::size_t tcp_len = wire_len - net::kIpv4HeaderLen;
      std::vector<std::uint8_t> summed(seg.begin() + 12, seg.begin() + 20);
      summed.insert(summed.end(),
                    {0, net::kProtoTcp, static_cast<std::uint8_t>(tcp_len >> 8),
                     static_cast<std::uint8_t>(tcp_len)});
      summed.insert(summed.end(), seg.begin() + net::kIpv4HeaderLen, seg.end());
      EXPECT_EQ(net::internet_checksum(summed), 0) << "record " << records;
      ++verified;
    }
    EXPECT_EQ(records, trace.size());
    EXPECT_EQ(verified, snaplen < 64 ? trace.size() / 2 : trace.size());
  }
}

TEST(Pcap, BadMagicThrows) {
  std::stringstream ss;
  ss.write("not a pcap file at all....", 26);
  EXPECT_THROW(read_stream(ss), std::runtime_error);
}

TEST(Pcap, TruncatedHeaderThrows) {
  std::stringstream ss;
  ss.write("\xd4\xc3\xb2\xa1", 4);
  EXPECT_THROW(read_stream(ss), std::runtime_error);
}

TEST(Pcap, TruncatedFinalRecordKeepsPrefix) {
  net::PacketTrace trace;
  trace.add(make_pkt(100, 1, 100, true));
  trace.add(make_pkt(200, 101, 100, true));
  std::stringstream ss;
  write_stream(ss, trace);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 30);  // cut into the last record
  std::stringstream cut(bytes);
  const auto back = read_stream(cut);
  EXPECT_EQ(back.size(), 1u);
}

TEST(Pcap, SwappedEndianHeader) {
  net::PacketTrace trace;
  trace.add(make_pkt(123'456, 1, 10, true));
  std::stringstream ss;
  write_stream(ss, trace);
  std::string bytes = ss.str();
  // Byte-swap the global header and the record header manually so the file
  // looks like it was written on a big-endian machine.
  auto swap32 = [&bytes](std::size_t off) {
    std::swap(bytes[off], bytes[off + 3]);
    std::swap(bytes[off + 1], bytes[off + 2]);
  };
  auto swap16 = [&bytes](std::size_t off) { std::swap(bytes[off], bytes[off + 1]); };
  swap32(0);             // magic
  swap16(4);             // version major
  swap16(6);             // version minor
  swap32(8);
  swap32(12);
  swap32(16);            // snaplen
  swap32(20);            // linktype
  for (std::size_t off = 24; off < 24 + 16; off += 4) swap32(off);
  std::stringstream swapped(bytes);
  const auto back = read_stream(swapped);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].timestamp.us(), 123'456);
}

TEST(Pcap, EthernetLinktype) {
  // Hand-assemble a 1-record Ethernet pcap containing an IPv4/TCP packet.
  std::string bytes;
  auto le32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  auto le16 = [&bytes](std::uint16_t v) {
    bytes.push_back(static_cast<char>(v & 0xff));
    bytes.push_back(static_cast<char>(v >> 8));
  };
  le32(0xa1b2c3d4);
  le16(2);
  le16(4);
  le32(0);
  le32(0);
  le32(65535);
  le32(1);  // LINKTYPE_ETHERNET

  // Build the IP/TCP payload via the writer on a raw trace, then wrap.
  net::PacketTrace tmp;
  tmp.add(make_pkt(42, 7, 5, false));
  std::stringstream raw;
  write_stream(raw, tmp);
  const std::string raw_bytes = raw.str();
  const std::string ip_pkt = raw_bytes.substr(24 + 16);  // skip headers

  le32(0);  // ts sec
  le32(42);  // ts usec
  le32(static_cast<std::uint32_t>(14 + ip_pkt.size()));  // caplen
  le32(static_cast<std::uint32_t>(14 + ip_pkt.size()));  // len
  // Ethernet header: dst, src, ethertype 0x0800.
  bytes.append(12, '\0');
  bytes.push_back(0x08);
  bytes.push_back(0x00);
  bytes += ip_pkt;

  std::stringstream ss(bytes);
  ReadStats stats;
  const auto back = read_stream(ss, &stats);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].tcp.seq, net::Seq32{7});
  EXPECT_EQ(back[0].payload_len, 5u);
  EXPECT_EQ(back[0].timestamp.us(), 42);
}

TEST(Pcap, NonTcpRecordsSkipped) {
  net::PacketTrace trace;
  trace.add(make_pkt(1, 1, 10, true));
  std::stringstream ss;
  write_stream(ss, trace);
  std::string bytes = ss.str();
  // Flip the IP protocol byte (offset: 24 global + 16 record + 9) to UDP.
  bytes[24 + 16 + 9] = 17;
  // Fix the IP checksum? The reader does not verify checksums; fine.
  std::stringstream mod(bytes);
  ReadStats stats;
  const auto back = read_stream(mod, &stats);
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(Pcap, LargeRandomTraceRoundTrip) {
  Rng rng(99);
  net::PacketTrace trace;
  std::int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform_int(0, 5000);
    auto p = make_pkt(t, static_cast<std::uint32_t>(rng.next_u64()),
                      static_cast<std::uint32_t>(rng.uniform_int(0, 1448)),
                      rng.chance(0.5));
    if (rng.chance(0.2)) {
      p.tcp.sack_blocks.push_back(
          {net::Seq32{static_cast<std::uint32_t>(rng.next_u64())},
           net::Seq32{static_cast<std::uint32_t>(rng.next_u64())}});
    }
    trace.add(p);
  }
  std::stringstream ss;
  write_stream(ss, trace);
  const auto back = read_stream(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].tcp.seq, trace[i].tcp.seq);
    EXPECT_EQ(back[i].payload_len, trace[i].payload_len);
    EXPECT_EQ(back[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(back[i].tcp.sack_blocks, trace[i].tcp.sack_blocks);
  }
}

}  // namespace
}  // namespace tapo::pcap
