// Capture-file formats, without a libpcap dependency:
//
//  - classic libpcap (the 24-byte global header + per-record headers,
//    https://wiki.wireshark.org/Development/LibpcapFileFormat) — written
//    and read;
//  - pcapng (SHB/IDB/EPB block structure, the modern Wireshark/tcpdump
//    default) — read-only.
//
// Files are written with LINKTYPE_RAW (raw IPv4/IPv6) and microsecond
// timestamps. The readers additionally accept LINKTYPE_ETHERNET and
// LINKTYPE_NULL/LOOP so real captures can be fed straight into the TAPO
// analyzer, and handle both endiannesses, the nanosecond classic magic,
// and per-interface pcapng timestamp resolutions. The format is
// auto-detected from the leading magic.
//
// The readers decode in place: the input is read in 16 KiB blocks (grown
// only to fit a larger record), and each record is parsed from the block
// straight into the trace arena, with no per-record stream call or copy.
// The block is the reader's own I/O buffer and is not charged to a
// MemoryBudget.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "net/chunk.h"
#include "net/trace.h"
#include "util/memory_budget.h"

namespace tapo::pcap {

struct WriteOptions {
  std::uint32_t snaplen = 65535;
};

/// Serializes `trace` as a pcap file. Payload bytes are synthesized as
/// zeros (the analyzer is payload-agnostic). Throws std::runtime_error on
/// I/O failure.
void write_file(const std::string& path, const net::PacketTrace& trace,
                const WriteOptions& opts = {});
void write_stream(std::ostream& out, const net::PacketTrace& trace,
                  const WriteOptions& opts = {});

struct ReadStats {
  std::size_t records = 0;       // pcap records seen
  std::size_t tcp_packets = 0;   // parsed into the trace
  std::size_t skipped = 0;       // non-IPv4/non-TCP/truncated records
};

/// Parses a capture file (classic pcap or pcapng, auto-detected) into a
/// PacketTrace. Non-TCP records are skipped and counted in ReadStats.
/// Throws std::runtime_error on malformed input; the message carries the
/// record/block index and absolute file offset (e.g. "pcap: absurd caplen
/// 300000 (record 7, offset 1832)").
net::PacketTrace read_file(const std::string& path, ReadStats* stats = nullptr);
net::PacketTrace read_stream(std::istream& in, ReadStats* stats = nullptr);

/// Pull-based chunked reader: the same auto-detected parsers as
/// read_stream, but packets are delivered as sealed fixed-size TraceChunks
/// so a file larger than RAM streams through bounded memory. The
/// claim-then-rollback parse semantics (and `truncated` flagging) are
/// identical to the batch path — concatenating every chunk reproduces
/// read_stream's trace bit for bit.
///
/// With Options::budget set, each chunk is charged against the pipeline's
/// MemoryBudget for as long as it lives (TraceChunk releases on
/// destruction), so the reader and the analyzer share one ledger.
struct StreamingOptions {
  std::size_t chunk_packets = net::ChunkedTrace::kDefaultChunkPackets;
  util::MemoryBudget* budget = nullptr;
};

class StreamingReader {
 public:
  using Options = StreamingOptions;

  /// Opens `path`; throws std::runtime_error if unreadable or not a
  /// capture file.
  explicit StreamingReader(const std::string& path, Options opts = {});
  /// Reads from a caller-owned stream (must outlive the reader).
  explicit StreamingReader(std::istream& in, Options opts = {});
  ~StreamingReader();
  StreamingReader(StreamingReader&&) noexcept;
  StreamingReader& operator=(StreamingReader&&) noexcept;

  /// Next sealed chunk, or nullopt at end of input. Throws on malformed
  /// records (same messages as read_stream).
  std::optional<net::TraceChunk> next_chunk();

  /// Cumulative counters over everything parsed so far.
  const ReadStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tapo::pcap
