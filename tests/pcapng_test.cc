// Tests for the pcapng reader (format auto-detection, SHB/IDB/EPB parsing,
// per-interface timestamp resolution).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/ipv4.h"
#include "pcap/pcap.h"

#include "support/pcap_files.h"

namespace tapo::pcap {
namespace {

using test::block;
using test::epb;
using test::idb;
using test::shb;

/// Raw IPv4/TCP frame bytes via the classic writer.
std::string ip_frame(std::uint32_t seq, std::uint32_t payload) {
  net::PacketTrace t;
  net::CapturedPacket p;
  p.key = {net::ipv4_from_string("10.0.0.1"),
           net::ipv4_from_string("192.168.1.1"), 40001, 80};
  p.tcp.seq = net::Seq32{seq};
  p.tcp.flags.ack = true;
  p.payload_len = payload;
  t.add(p);
  std::stringstream ss;
  write_stream(ss, t);
  return ss.str().substr(24 + 16);  // strip global + record header
}

TEST(Pcapng, MinimalFileParses) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(/*LINKTYPE_RAW=*/101));
  block(file, 0x00000006, epb(0, 1'500'000, ip_frame(777, 100)));
  block(file, 0x00000006, epb(0, 2'250'000, ip_frame(877, 50)));

  std::stringstream ss(file);
  ReadStats st;
  const auto trace = read_stream(ss, &st);
  EXPECT_EQ(st.records, 2u);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].tcp.seq, net::Seq32{777});
  EXPECT_EQ(trace[0].timestamp.us(), 1'500'000);  // default 1e-6 resolution
  EXPECT_EQ(trace[1].payload_len, 50u);
  EXPECT_EQ(trace[1].timestamp.us(), 2'250'000);
}

TEST(Pcapng, NanosecondResolutionConverted) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101, /*tsresol=*/9));  // 1e-9 units
  block(file, 0x00000006, epb(0, 3'000'000'000ull, ip_frame(1, 10)));
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].timestamp.us(), 3'000'000);  // 3e9 ns = 3 s
}

// Epoch-scale timestamps have more digits than a double holds exactly, so
// the unit conversion must stay in integers.
TEST(Pcapng, EpochMicrosecondTimestampExact) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101));  // default 1e-6 units
  block(file, 0x00000006, epb(0, 1'700'000'000'123'471ull, ip_frame(1, 10)));
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].timestamp.us(), 1'700'000'000'123'471);
}

TEST(Pcapng, EpochNanosecondTimestampTruncatedToMicroseconds) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101, /*tsresol=*/9));  // 1e-9 units
  block(file, 0x00000006,
        epb(0, 1'700'000'000'123'456'896ull, ip_frame(1, 10)));
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].timestamp.us(), 1'700'000'000'123'456);
}

TEST(Pcapng, BinaryResolutionConverted) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101, /*tsresol=*/0x80 | 20));  // 2^-20 s
  block(file, 0x00000001, idb(101, /*tsresol=*/0x80 | 70));  // past 2^-63
  block(file, 0x00000006, epb(0, 7ull << 19, ip_frame(1, 10)));  // 3.5 s
  block(file, 0x00000006, epb(1, 1ull << 63, ip_frame(2, 10)));  // 1 s
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].timestamp.us(), 3'500'000);
  EXPECT_EQ(trace[1].timestamp.us(), 1'000'000);
}

TEST(Pcapng, EthernetFramesUnwrapped) {
  std::string frame = ip_frame(42, 25);
  std::string eth;
  eth.append(12, '\0');
  eth.push_back(0x08);
  eth.push_back(0x00);
  eth += frame;
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(/*LINKTYPE_ETHERNET=*/1));
  block(file, 0x00000006, epb(0, 10, eth));
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].tcp.seq, net::Seq32{42});
  EXPECT_EQ(trace[0].payload_len, 25u);
}

TEST(Pcapng, UnknownBlocksSkipped) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101));
  block(file, 0x00000bad, std::string(16, '\x55'));  // custom block
  block(file, 0x00000006, epb(0, 10, ip_frame(5, 5)));
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(Pcapng, MultipleInterfacesUseOwnLinktype) {
  std::string eth = ip_frame(9, 9);
  std::string wrapped;
  wrapped.append(12, '\0');
  wrapped.push_back(0x08);
  wrapped.push_back(0x00);
  wrapped += eth;
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101));  // if 0: raw
  block(file, 0x00000001, idb(1));    // if 1: ethernet
  block(file, 0x00000006, epb(0, 10, ip_frame(8, 8)));
  block(file, 0x00000006, epb(1, 20, wrapped));
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].tcp.seq, net::Seq32{8});
  EXPECT_EQ(trace[1].tcp.seq, net::Seq32{9});
}

TEST(Pcapng, TruncatedFileKeepsPrefix) {
  std::string file;
  block(file, 0x0A0D0D0A, shb());
  block(file, 0x00000001, idb(101));
  block(file, 0x00000006, epb(0, 10, ip_frame(1, 1)));
  block(file, 0x00000006, epb(0, 20, ip_frame(2, 2)));
  file.resize(file.size() - 10);
  std::stringstream ss(file);
  const auto trace = read_stream(ss);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(Pcapng, GarbageAfterMagicThrows) {
  std::string file = "\x0a\x0d\x0d\x0a";  // SHB type, then nothing
  std::stringstream ss(file);
  EXPECT_THROW(read_stream(ss), std::runtime_error);
}

}  // namespace
}  // namespace tapo::pcap
