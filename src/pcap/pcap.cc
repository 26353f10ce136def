#include "pcap/pcap.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/checksum.h"
#include "net/endian.h"
#include "net/ipv4.h"
#include "util/strings.h"

namespace tapo::pcap {
namespace {

constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kLinkRaw = 101;       // raw IP
constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkNull = 0;        // BSD loopback
constexpr std::uint32_t kLinkLoop = 108;

// pcap file headers are written in *host* order by convention; we always
// write little-endian and detect byte order when reading.
void put_le16(std::span<std::uint8_t> out, std::size_t off, std::uint16_t v) {
  out[off] = static_cast<std::uint8_t>(v);
  out[off + 1] = static_cast<std::uint8_t>(v >> 8);
}

void put_le32(std::span<std::uint8_t> out, std::size_t off, std::uint32_t v) {
  put_le16(out, off, static_cast<std::uint16_t>(v));
  put_le16(out, off + 2, static_cast<std::uint16_t>(v >> 16));
}

void write_bytes(std::ostream& out, std::span<const std::uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Block-buffered input. The stream is read kBlockBytes at a time and
/// records are handed out as spans into the block, so decoding a record
/// makes no stream call and copies no bytes.
class ByteReader {
 public:
  /// Read granularity. The block grows only to fit a larger record.
  static constexpr std::size_t kBlockBytes = 16 * 1024;

  explicit ByteReader(std::istream& in) : in_(in), block_(kBlockBytes) {}

  /// The next `n` bytes, or nullopt when the input ends first. The span
  /// stays valid only until the next take().
  std::optional<std::span<const std::uint8_t>> take(std::size_t n) {
    if (end_ - pos_ < n && !fill(n)) return std::nullopt;
    const std::span<const std::uint8_t> bytes(block_.data() + pos_, n);
    pos_ += n;
    offset_ += n;
    return bytes;
  }

  /// Discards `n` bytes: buffered ones first, then by seeking the stream.
  bool skip(std::size_t n) {
    const std::size_t buffered = std::min(n, end_ - pos_);
    pos_ += buffered;
    offset_ += buffered;
    n -= buffered;
    if (n == 0) return true;
    in_.seekg(static_cast<std::streamoff>(n), std::ios::cur);
    if (!in_) return false;
    offset_ += n;
    return true;
  }

  /// Absolute position in the input: bytes consumed so far. Carried into
  /// every parse-error message so a malformed record can be found with a
  /// hex editor.
  std::size_t offset() const { return offset_; }

 private:
  /// Moves the unread bytes to the front of the block and reads behind
  /// them until at least `n` are buffered; false if the input ends first.
  bool fill(std::size_t n) {
    const std::size_t unread = end_ - pos_;
    std::memmove(block_.data(), block_.data() + pos_, unread);
    pos_ = 0;
    end_ = unread;
    if (block_.size() < n) block_.resize(n);
    in_.read(reinterpret_cast<char*>(block_.data() + end_),
             static_cast<std::streamsize>(block_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    return end_ >= n;
  }

  std::istream& in_;
  std::vector<std::uint8_t> block_;
  std::size_t pos_ = 0;  // next unread byte in block_
  std::size_t end_ = 0;  // end of the buffered bytes in block_
  std::size_t offset_ = 0;
};

/// Builds "pcap: <what> (record N, offset X)" — every reader throw site
/// funnels through here so errors always locate the bad record.
[[noreturn]] void fail_at(const char* what, const char* unit,
                          std::size_t index, std::size_t offset) {
  throw std::runtime_error(
      str_format("%s (%s %llu, offset %llu)", what, unit,
                 static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(offset)));
}

std::uint32_t load32(std::span<const std::uint8_t> b, std::size_t off,
                     bool swap) {
  std::uint32_t v = static_cast<std::uint32_t>(b[off]) |
                    (static_cast<std::uint32_t>(b[off + 1]) << 8) |
                    (static_cast<std::uint32_t>(b[off + 2]) << 16) |
                    (static_cast<std::uint32_t>(b[off + 3]) << 24);
  if (swap) v = __builtin_bswap32(v);
  return v;
}

}  // namespace

void write_stream(std::ostream& out, const net::PacketTrace& trace,
                  const WriteOptions& opts) {
  std::array<std::uint8_t, 24> header{};
  put_le32(header, 0, kMagicUsec);
  put_le16(header, 4, 2);  // version major
  put_le16(header, 6, 4);  // version minor
  put_le32(header, 8, 0);   // thiszone
  put_le32(header, 12, 0);  // sigfigs
  put_le32(header, 16, opts.snaplen);
  put_le32(header, 20, kLinkRaw);
  write_bytes(out, header);

  std::vector<std::uint8_t> pkt;
  for (const auto& cp : trace.packets()) {
    const std::size_t tcp_hlen = cp.tcp.header_len();
    const std::size_t tcp_len = tcp_hlen + cp.payload_len;
    const std::size_t ip_len = net::kIpv4HeaderLen + tcp_len;
    const std::size_t caplen = std::min<std::size_t>(ip_len, opts.snaplen);
    // The payload is zeros and only caplen bytes are written, so the
    // scratch packet holds the headers and the captured payload, no more.
    pkt.assign(std::max(caplen, net::kIpv4HeaderLen + tcp_hlen), 0);

    net::Ipv4Header ip;
    ip.src = cp.key.src_ip;
    ip.dst = cp.key.dst_ip;
    ip.total_length = static_cast<std::uint16_t>(ip_len);
    ip.serialize(std::span(pkt).subspan(0, net::kIpv4HeaderLen));

    net::TcpHeader tcp = cp.tcp;
    tcp.src_port = cp.key.src_port;
    tcp.dst_port = cp.key.dst_port;
    tcp.serialize(std::span(pkt).subspan(net::kIpv4HeaderLen));
    const std::uint16_t csum = net::tcp_checksum(
        ip.src, ip.dst, std::span(pkt).subspan(net::kIpv4HeaderLen, tcp_hlen),
        tcp_len);
    net::put_u16(std::span(pkt).subspan(net::kIpv4HeaderLen), 16, csum);

    std::array<std::uint8_t, 16> rec{};
    put_le32(rec, 0, static_cast<std::uint32_t>(cp.timestamp.us() / 1'000'000));
    put_le32(rec, 4, static_cast<std::uint32_t>(cp.timestamp.us() % 1'000'000));
    put_le32(rec, 8, static_cast<std::uint32_t>(caplen));
    put_le32(rec, 12, static_cast<std::uint32_t>(ip_len));
    write_bytes(out, rec);
    write_bytes(out, std::span(pkt).first(caplen));
  }
  if (!out) throw std::runtime_error("pcap: write failed");
}

void write_file(const std::string& path, const net::PacketTrace& trace,
                const WriteOptions& opts) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("pcap: cannot open " + path);
  write_stream(out, trace, opts);
}

namespace {

std::size_t link_header_for(std::uint32_t linktype) {
  switch (linktype) {
    case kLinkRaw: return 0;
    case kLinkEthernet: return 14;
    case kLinkNull:
    case kLinkLoop: return 4;
    default:
      throw std::runtime_error("pcap: unsupported linktype " +
                               std::to_string(linktype));
  }
}

/// Parses one link-layer frame straight into the trace arena: a slot is
/// claimed from the builder, the TCP header is decoded in place, and the
/// slot is rolled back for non-IPv4/non-TCP/truncated frames — no
/// CapturedPacket is ever materialized outside the arena. Returns false
/// (and bumps skipped) when the frame is rejected.
bool parse_frame(std::span<const std::uint8_t> p, std::uint32_t linktype,
                 std::int64_t ts_us, net::TraceBuilder& builder,
                 ReadStats& st) {
  const std::size_t link_header = link_header_for(linktype);
  if (link_header > 0) {
    if (p.size() < link_header) {
      ++st.skipped;
      return false;
    }
    if (linktype == kLinkEthernet && net::get_u16(p, 12) != 0x0800) {
      ++st.skipped;
      return false;
    }
    p = p.subspan(link_header);
  }

  net::Ipv4Header ip;
  std::size_t ip_hlen = 0;
  if (!net::Ipv4Header::parse(p, ip, ip_hlen) ||
      ip.protocol != net::kProtoTcp) {
    ++st.skipped;
    return false;
  }
  // Wire lengths come from the IP header; the captured bytes may stop short
  // of them when the capture ran with a small snaplen. Sizing the packet
  // from the wire (not from caplen) keeps sequence accounting correct all
  // the way through demux and the analyzer — only the uncaptured option
  // bytes are actually lost, and those are flagged via `truncated`.
  if (ip.total_length < ip_hlen + net::kTcpMinHeaderLen) {
    ++st.skipped;  // wire packet too short to hold a TCP header: malformed
    return false;
  }
  const std::size_t wire_tcp_len = ip.total_length - ip_hlen;
  const std::size_t captured_tcp_len =
      p.size() > ip_hlen ? std::min(p.size() - ip_hlen, wire_tcp_len) : 0;
  std::span<const std::uint8_t> tcp_bytes = p.subspan(ip_hlen, captured_tcp_len);

  net::CapturedPacket& cp = builder.begin_packet();
  std::size_t tcp_hlen = 0;
  bool opts_truncated = false;
  if (!net::TcpHeader::parse(tcp_bytes, cp.tcp, tcp_hlen, &opts_truncated) ||
      wire_tcp_len < tcp_hlen) {
    builder.rollback_last();
    ++st.skipped;
    return false;
  }
  cp.timestamp = TimePoint::from_us(ts_us);
  cp.key = {ip.src, ip.dst, cp.tcp.src_port, cp.tcp.dst_port};
  // Payload length is the *wire* payload — present on the path even when
  // the capture kept only a header prefix of it.
  cp.payload_len = static_cast<std::uint32_t>(wire_tcp_len - tcp_hlen);
  cp.truncated = opts_truncated;
  ++st.tcp_packets;
  return true;
}

/// Resumable frame parser: each next() call advances the input until one
/// TCP packet has been appended through the builder (true) or the input
/// ends (false). Holding parse state in the object — instead of locals of
/// a one-shot read loop — is what lets the StreamingReader pull a chunk,
/// hand it off, and come back for more.
class FrameParser {
 public:
  virtual ~FrameParser() = default;
  /// Throws std::runtime_error with record/offset context on malformed
  /// input. The same ReadStats must be passed on every call.
  virtual bool next(net::TraceBuilder& builder, ReadStats& st) = 0;
};

class ClassicParser final : public FrameParser {
 public:
  /// `magic` is the already-consumed leading magic; the remaining 20
  /// header bytes are read here.
  ClassicParser(ByteReader& reader, std::uint32_t magic) : reader_(reader) {
    const auto gh = reader_.take(20);
    if (!gh) throw std::runtime_error("pcap: truncated header");

    if (magic == kMagicUsec) {
    } else if (magic == __builtin_bswap32(kMagicUsec)) {
      swap_ = true;
    } else if (magic == kMagicNsec) {
      nsec_ = true;
    } else {
      swap_ = true;
      nsec_ = true;
    }
    linktype_ = load32(*gh, 16, swap_);
    link_header_for(linktype_);  // validate up front
  }

  bool next(net::TraceBuilder& builder, ReadStats& st) override {
    while (true) {
      const std::size_t record_start = reader_.offset();
      // The header span dies with the frame's take(), so its fields are
      // read first.
      const auto rh = reader_.take(16);
      if (!rh) return false;
      ++st.records;
      const std::uint32_t ts_sec = load32(*rh, 0, swap_);
      const std::uint32_t ts_frac = load32(*rh, 4, swap_);
      const std::uint32_t caplen = load32(*rh, 8, swap_);
      if (caplen > 256 * 1024) {
        fail_at(str_format("pcap: absurd caplen %u", caplen).c_str(),
                "record", st.records, record_start);
      }
      const auto frame = reader_.take(caplen);
      if (!frame) return false;  // truncated final record: keep everything
                                 // before it
      const std::int64_t frac_us =
          nsec_ ? static_cast<std::int64_t>(ts_frac) / 1000
                : static_cast<std::int64_t>(ts_frac);
      if (parse_frame(*frame, linktype_,
                      static_cast<std::int64_t>(ts_sec) * 1'000'000 + frac_us,
                      builder, st)) {
        return true;
      }
    }
  }

 private:
  ByteReader& reader_;
  bool swap_ = false;
  bool nsec_ = false;
  std::uint32_t linktype_ = kLinkRaw;
};

constexpr std::uint32_t kNgShb = 0x0A0D0D0A;
constexpr std::uint32_t kNgIdb = 0x00000001;
constexpr std::uint32_t kNgEpb = 0x00000006;
constexpr std::uint32_t kNgSpb = 0x00000003;
constexpr std::uint32_t kNgByteOrderMagic = 0x1A2B3C4D;

struct NgInterface {
  std::uint32_t linktype = kLinkEthernet;
  /// Timestamp units per second (default 10^6 per the spec).
  std::uint64_t ts_per_sec = 1'000'000;
};

class NgParser final : public FrameParser {
 public:
  /// Entered having consumed the 4-byte SHB type; the SHB itself is
  /// processed on the first next() call.
  explicit NgParser(ByteReader& reader) : reader_(reader) {}

  bool next(net::TraceBuilder& builder, ReadStats& st) override {
    while (true) {
      std::size_t block_start = reader_.offset();
      std::uint32_t block_type = kNgShb;
      if (!first_block_) {
        const auto tb = reader_.take(4);
        if (!tb) return false;
        block_type = load32(*tb, 0, /*swap=*/false);  // endianness fixed below
      } else {
        block_start = reader_.offset() - 4;  // SHB type consumed up front
      }
      ++blocks_;

      const auto lb = reader_.take(4);
      if (!lb) {
        if (first_block_) {
          fail_at("pcapng: truncated SHB", "block", blocks_, block_start);
        }
        return false;
      }
      const std::uint32_t raw_len = load32(*lb, 0, false);
      std::uint32_t total_len;
      // Every SHB (not just the first) starts a new section and may change
      // the byte order, so its own byte-order magic — not the previous
      // section's — decides how its length decodes. The SHB type value is a
      // palindrome, so reading it with the old order is safe.
      const bool is_shb = first_block_ || block_type == kNgShb ||
                          __builtin_bswap32(block_type) == kNgShb;
      if (is_shb) {
        // Peek the byte-order magic to fix endianness for this section.
        const auto bom = reader_.take(4);
        if (!bom) {
          fail_at("pcapng: truncated SHB", "block", blocks_, block_start);
        }
        const std::uint32_t magic = load32(*bom, 0, false);
        if (magic == kNgByteOrderMagic) {
          swap_ = false;
        } else if (magic == __builtin_bswap32(kNgByteOrderMagic)) {
          swap_ = true;
        } else {
          fail_at("pcapng: bad byte-order magic", "block", blocks_,
                  block_start);
        }
        total_len = swap_ ? __builtin_bswap32(raw_len) : raw_len;
        if (total_len < 28 || total_len > 1 << 24) {
          fail_at(str_format("pcapng: absurd SHB length %u", total_len).c_str(),
                  "block", blocks_, block_start);
        }
        // Skip the rest of the SHB: total - (4 type + 4 len + 4 bom).
        if (!reader_.skip(total_len - 12)) return false;
        first_block_ = false;
        interfaces_.clear();  // interface ids are per-section
        continue;
      }

      if (swap_) block_type = __builtin_bswap32(block_type);
      total_len = swap_ ? __builtin_bswap32(raw_len) : raw_len;
      if (total_len < 12 || total_len > 1 << 24) {
        fail_at(str_format("pcapng: absurd block length %u", total_len).c_str(),
                "block", blocks_, block_start);
      }
      const std::uint32_t body_len = total_len - 12;  // minus type+2*len
      // Body and trailing length in one take: the span dies with the next.
      const auto block = reader_.take(body_len + 4);
      if (!block) return false;
      const std::span<const std::uint8_t> body = block->first(body_len);

      if (block_type == kNgIdb) {
        if (body_len < 8) continue;
        NgInterface ifc;
        ifc.linktype = load32(body, 0, swap_) & 0xffff;
        // Walk options for if_tsresol (code 9). Option code/length are
        // 16-bit values in the section's byte order.
        const auto load16 = [&](std::size_t o) {
          std::uint16_t v =
              static_cast<std::uint16_t>(body[o] | (body[o + 1] << 8));
          return swap_ ? __builtin_bswap16(v) : v;
        };
        std::size_t off = 8;
        while (off + 4 <= body_len) {
          const std::uint16_t c = load16(off);
          const std::uint16_t l = load16(off + 2);
          if (c == 0) break;  // opt_endofopt
          if (c == 9 && l >= 1 && off + 4 < body_len) {
            const std::uint8_t v = body[off + 4];
            if (v & 0x80) {
              // 2^-63 s is the finest a 64-bit count can hold; a larger
              // exponent from the file would overflow the shift.
              ifc.ts_per_sec = 1ull << std::min(v & 0x7f, 63);
            } else {
              ifc.ts_per_sec = 1;
              for (int e = 0; e < (v & 0x7f) && e < 18; ++e) {
                ifc.ts_per_sec *= 10;
              }
            }
          }
          off += 4 + ((l + 3u) & ~3u);
        }
        interfaces_.push_back(ifc);
        continue;
      }

      if (block_type == kNgEpb) {
        if (body_len < 20) continue;
        ++st.records;
        const std::uint32_t if_id = load32(body, 0, swap_);
        const std::uint64_t ts =
            (static_cast<std::uint64_t>(load32(body, 4, swap_)) << 32) |
            load32(body, 8, swap_);
        const std::uint32_t caplen = load32(body, 12, swap_);
        if (caplen > body_len - 20) {
          ++st.skipped;
          continue;
        }
        const NgInterface ifc =
            if_id < interfaces_.size() ? interfaces_[if_id] : NgInterface{};
        // Integer conversion: a double drops the last microsecond digit of
        // an epoch-scale timestamp, and the 128-bit product cannot
        // overflow for any resolution.
        const std::int64_t ts_us = static_cast<std::int64_t>(
            static_cast<unsigned __int128>(ts) * 1'000'000u /
            ifc.ts_per_sec);
        if (parse_frame(body.subspan(20, caplen), ifc.linktype, ts_us, builder,
                        st)) {
          return true;
        }
        continue;
      }

      if (block_type == kNgSpb) {
        // Simple Packet Block: no timestamp; count it but skip (the
        // analyzer is useless without timing).
        ++st.records;
        ++st.skipped;
        continue;
      }
      // Unknown block: already consumed; ignore.
    }
  }

 private:
  ByteReader& reader_;
  std::vector<NgInterface> interfaces_;
  bool swap_ = false;
  bool first_block_ = true;
  std::size_t blocks_ = 0;
};

/// Auto-detects the capture format from the leading magic and returns the
/// matching resumable parser. Shared by the batch readers and the
/// StreamingReader.
std::unique_ptr<FrameParser> open_parser(ByteReader& reader) {
  const auto magic = reader.take(4);
  if (!magic) throw std::runtime_error("pcap: truncated header");
  const std::uint32_t m = load32(*magic, 0, /*swap=*/false);
  if (m == kNgShb) return std::make_unique<NgParser>(reader);
  if (m == kMagicUsec || m == __builtin_bswap32(kMagicUsec) ||
      m == kMagicNsec || m == __builtin_bswap32(kMagicNsec)) {
    return std::make_unique<ClassicParser>(reader, m);
  }
  throw std::runtime_error("pcap: bad magic");
}

}  // namespace

net::PacketTrace read_stream(std::istream& in, ReadStats* stats) {
  ReadStats local;
  ReadStats& st = stats ? *stats : local;

  ByteReader reader(in);
  const std::unique_ptr<FrameParser> parser = open_parser(reader);
  net::PacketTrace trace;
  net::TraceBuilder builder(trace);
  while (parser->next(builder, st)) {
  }
  return trace;
}

net::PacketTrace read_file(const std::string& path, ReadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pcap: cannot open " + path);
  return read_stream(in, stats);
}

// ------------------------------------------------------- StreamingReader

struct StreamingReader::Impl {
  std::unique_ptr<std::ifstream> owned;  // set when constructed from a path
  ByteReader reader;
  std::unique_ptr<FrameParser> parser;
  ReadStats stats;
  /// Chunks sealed by the ChunkedTrace sink, waiting to be pulled. Lazy
  /// sealing means at most one chunk sits here between next_chunk calls.
  std::deque<net::TraceChunk> pending;
  net::ChunkedTrace chunks;
  bool eof = false;

  /// Chunks must be small relative to a limited budget: a chunk is the
  /// reader's indivisible residency unit, so if one chunk alone neared the
  /// cap the downstream evictor could never get back under it. Cap the
  /// chunk at 1/8 of the budget (min one packet) and let an explicit
  /// smaller chunk_packets override win.
  static std::size_t effective_chunk_packets(const Options& opts) {
    std::size_t n = opts.chunk_packets;
    if (opts.budget != nullptr && !opts.budget->unlimited()) {
      const std::size_t cap = std::max<std::size_t>(
          1, opts.budget->limit() / (8 * sizeof(net::CapturedPacket)));
      n = std::min(n, cap);
    }
    return n;
  }

  Impl(std::istream& in, const Options& opts,
       std::unique_ptr<std::ifstream> own)
      : owned(std::move(own)),
        reader(in),
        parser(open_parser(reader)),
        chunks(effective_chunk_packets(opts),
               [this](net::TraceChunk&& c) { pending.push_back(std::move(c)); },
               opts.budget) {}
};

StreamingReader::StreamingReader(const std::string& path, Options opts) {
  auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*in) throw std::runtime_error("pcap: cannot open " + path);
  std::istream& ref = *in;
  impl_ = std::make_unique<Impl>(ref, opts, std::move(in));
}

StreamingReader::StreamingReader(std::istream& in, Options opts)
    : impl_(std::make_unique<Impl>(in, opts, nullptr)) {}

StreamingReader::~StreamingReader() = default;
StreamingReader::StreamingReader(StreamingReader&&) noexcept = default;
StreamingReader& StreamingReader::operator=(StreamingReader&&) noexcept =
    default;

std::optional<net::TraceChunk> StreamingReader::next_chunk() {
  Impl& im = *impl_;
  while (im.pending.empty() && !im.eof) {
    net::TraceBuilder builder(im.chunks);
    if (!im.parser->next(builder, im.stats)) {
      im.eof = true;
      im.chunks.seal_open();  // tail chunk (possibly empty) flushes here
    }
  }
  if (!im.pending.empty()) {
    net::TraceChunk chunk = std::move(im.pending.front());
    im.pending.pop_front();
    return chunk;
  }
  return std::nullopt;
}

const ReadStats& StreamingReader::stats() const { return impl_->stats; }

}  // namespace tapo::pcap
