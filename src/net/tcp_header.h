// TCP header model with the options that matter for stall analysis:
// MSS, window scale, SACK-permitted, SACK blocks (including DSACK), and
// timestamps. Serializes to/parses from the real wire format so simulator
// traces round-trip through libpcap files and real captures can be analyzed.
//
// The header is a POD: SACK blocks live in an inline fixed-capacity
// SackList (at most 4 blocks ever fit in the 40-byte TCP option space, even
// when split across multiple SACK options), so a TcpHeader — and therefore
// a CapturedPacket — is trivially copyable and never touches the heap.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <type_traits>

#include "net/seq.h"

namespace tapo::net {

constexpr std::size_t kTcpMinHeaderLen = 20;
constexpr std::size_t kTcpMaxHeaderLen = 60;

struct TcpFlags {
  // Bitfields: the whole flag set packs into one byte, which is what keeps
  // CapturedPacket records cache-dense on the analyzer hot path.
  bool fin : 1 = false;
  bool syn : 1 = false;
  bool rst : 1 = false;
  bool psh : 1 = false;
  bool ack : 1 = false;

  std::uint8_t to_byte() const;
  static TcpFlags from_byte(std::uint8_t b);
  bool operator==(const TcpFlags&) const = default;
};
static_assert(sizeof(TcpFlags) == 1);

/// One SACK block: [start, end) in sequence space.
/// Per RFC 2883, a DSACK is signalled by the *first* block covering already
/// cumulatively-ACKed (or previously SACKed) data; receivers in this library
/// always place the duplicate block first.
struct SackBlock {
  Seq32 start;
  Seq32 end;
  bool operator==(const SackBlock&) const = default;

  /// Bytes covered by the block (wrap-safe).
  std::uint32_t len() const { return distance(start, end); }
};

/// Inline fixed-capacity list of SACK blocks. The 40 bytes of TCP option
/// space bound the wire to 4 blocks total (each SACK option costs 2 bytes
/// plus 8 per block), so the list never needs to spill; push_back beyond
/// capacity drops the block, mirroring what a sender would do when running
/// out of option space.
class SackList {
 public:
  static constexpr std::size_t kMaxBlocks = 4;

  constexpr SackList() = default;
  SackList(std::initializer_list<SackBlock> blocks) {
    for (const SackBlock& b : blocks) push_back(b);
  }

  /// Appends a block; returns false (and drops it) when full.
  bool push_back(const SackBlock& b) {
    if (count_ == kMaxBlocks) return false;
    blocks_[count_++] = b;
    return true;
  }
  void clear() { count_ = 0; }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const SackBlock& operator[](std::size_t i) const { return blocks_[i]; }
  SackBlock& operator[](std::size_t i) { return blocks_[i]; }
  const SackBlock* begin() const { return blocks_.data(); }
  const SackBlock* end() const { return blocks_.data() + count_; }

  std::span<const SackBlock> span() const { return {blocks_.data(), count_}; }
  operator std::span<const SackBlock>() const { return span(); }

  friend bool operator==(const SackList& a, const SackList& b) {
    if (a.count_ != b.count_) return false;
    for (std::size_t i = 0; i < a.count_; ++i) {
      if (!(a.blocks_[i] == b.blocks_[i])) return false;
    }
    return true;
  }

 private:
  std::array<SackBlock, kMaxBlocks> blocks_{};
  std::uint8_t count_ = 0;
};
static_assert(std::is_trivially_copyable_v<SackList>);

struct TcpTimestamps {
  std::uint32_t value = 0;
  std::uint32_t echo_reply = 0;
  bool operator==(const TcpTimestamps&) const = default;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Seq32 seq;
  Seq32 ack;
  TcpFlags flags;
  std::uint16_t window = 0;  // raw (unscaled) window field

  // Options (each optional on the wire).
  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> window_scale;
  bool sack_permitted = false;
  SackList sack_blocks;  // inline; the wire bounds this to 4 blocks
  std::optional<TcpTimestamps> timestamps;

  /// Size of the serialized header including options (padded to 4 bytes).
  std::size_t header_len() const;

  /// Serializes into `out` (must hold header_len()); checksum is written by
  /// the caller via tcp_checksum() if needed. Returns bytes written.
  std::size_t serialize(std::span<std::uint8_t> out) const;

  /// Parses header + options. Returns false on malformed input.
  ///
  /// `header_len` is always the *wire* header length from the data-offset
  /// field. With `truncated` null (the default) the input must hold the
  /// whole header. With `truncated` non-null the parse tolerates snaplen
  /// truncation: when `in` ends before the wire header does, the options
  /// that fit are parsed, anything cut off (typically tail options — SACK
  /// blocks, timestamps) is dropped, and `*truncated` is set so the caller
  /// can record the capture artifact. At least the 20 fixed bytes must be
  /// present either way.
  static bool parse(std::span<const std::uint8_t> in, TcpHeader& out,
                    std::size_t& header_len, bool* truncated = nullptr);
};
static_assert(std::is_trivially_copyable_v<TcpHeader>,
              "TcpHeader must stay a POD: CapturedPacket records are stored "
              "in a contiguous arena and relocated with memcpy");

}  // namespace tapo::net
