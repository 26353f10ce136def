#pragma once
// Capture files for reader tests. Builders append little-endian fields and
// pcapng blocks to a byte string. The two pcap read paths then run over the
// same bytes: read_stream, and a StreamingReader whose chunks are
// concatenated. Each returns what it parsed, its ReadStats and the message
// it threw, so a test can require the two to agree packet for packet.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/trace.h"
#include "pcap/pcap.h"

namespace tapo::test {

inline void le16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}
inline void le32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// A pcapng block: type, total length, body, trailing length.
inline void block(std::string& out, std::uint32_t type,
                  const std::string& body) {
  const std::uint32_t total = 12 + static_cast<std::uint32_t>(body.size());
  le32(out, type);
  le32(out, total);
  out += body;
  le32(out, total);
}

/// Section header block body, little-endian.
inline std::string shb() {
  std::string b;
  le32(b, 0x1A2B3C4D);  // byte-order magic
  le16(b, 1);           // major
  le16(b, 0);           // minor
  le32(b, 0xffffffff);  // section length (unknown), low
  le32(b, 0xffffffff);  // high
  return b;
}

/// Interface description block body.
inline std::string idb(std::uint16_t linktype, int tsresol = -1) {
  std::string b;
  le16(b, linktype);
  le16(b, 0);      // reserved
  le32(b, 65535);  // snaplen
  if (tsresol >= 0) {
    le16(b, 9);  // if_tsresol: 10^-n s, or 2^-n s with the top bit set
    le16(b, 1);
    b.push_back(static_cast<char>(tsresol));
    b.append(3, '\0');  // padding
  }
  le16(b, 0);  // opt_endofopt
  le16(b, 0);
  return b;
}

/// Enhanced packet block body holding `frame` whole.
inline std::string epb(std::uint32_t if_id, std::uint64_t ts_units,
                       const std::string& frame) {
  std::string b;
  le32(b, if_id);
  le32(b, static_cast<std::uint32_t>(ts_units >> 32));
  le32(b, static_cast<std::uint32_t>(ts_units & 0xffffffff));
  le32(b, static_cast<std::uint32_t>(frame.size()));  // caplen
  le32(b, static_cast<std::uint32_t>(frame.size()));  // origlen
  b += frame;
  while (b.size() % 4) b.push_back('\0');
  return b;
}

struct ReadOutcome {
  net::PacketTrace packets;
  pcap::ReadStats stats;
  std::string error;  // empty when the read reached the end of input
};

inline ReadOutcome read_batch(const std::string& bytes) {
  ReadOutcome out;
  std::istringstream in(bytes);
  try {
    out.packets = pcap::read_stream(in, &out.stats);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

inline ReadOutcome read_chunked(const std::string& bytes,
                                std::size_t chunk_packets) {
  ReadOutcome out;
  std::istringstream in(bytes);
  std::optional<pcap::StreamingReader> reader;
  try {
    reader.emplace(in, pcap::StreamingOptions{.chunk_packets = chunk_packets});
    while (auto chunk = reader->next_chunk()) {
      for (const net::CapturedPacket& pkt : chunk->packets()) {
        out.packets.add(pkt);
      }
    }
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  if (reader) out.stats = reader->stats();
  return out;
}

/// Field-by-field equality (padding bytes are not part of a packet).
inline bool same_packet(const net::CapturedPacket& a,
                        const net::CapturedPacket& b) {
  const net::TcpHeader& x = a.tcp;
  const net::TcpHeader& y = b.tcp;
  return a.timestamp == b.timestamp && a.key == b.key &&
         a.payload_len == b.payload_len && a.truncated == b.truncated &&
         x.src_port == y.src_port && x.dst_port == y.dst_port &&
         x.seq == y.seq && x.ack == y.ack && x.flags == y.flags &&
         x.window == y.window && x.mss == y.mss &&
         x.window_scale == y.window_scale &&
         x.sack_permitted == y.sack_permitted &&
         x.sack_blocks == y.sack_blocks && x.timestamps == y.timestamps;
}

/// Same error and ReadStats; with no error, the same packets too
/// (read_stream hands back none when it throws).
inline void expect_same_outcome(const ReadOutcome& a, const ReadOutcome& b) {
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.stats.records, b.stats.records);
  EXPECT_EQ(a.stats.tcp_packets, b.stats.tcp_packets);
  EXPECT_EQ(a.stats.skipped, b.stats.skipped);
  if (!a.error.empty() || !b.error.empty()) return;
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_TRUE(same_packet(a.packets[i], b.packets[i])) << "packet " << i;
  }
}

}  // namespace tapo::test
