// Internet checksum (RFC 1071) and the TCP pseudo-header checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tapo::net {

/// One's-complement sum over `data`, folded to 16 bits, complemented.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// TCP checksum of a `tcp_len`-byte segment whose leading bytes are `head`
/// and whose remaining bytes are zeros (which add nothing to the sum):
/// pseudo-header (src, dst, protocol 6, tcp_len) + head.
std::uint16_t tcp_checksum(std::uint32_t src_ip, std::uint32_t dst_ip,
                           std::span<const std::uint8_t> head,
                           std::size_t tcp_len);

}  // namespace tapo::net
