#include "net/checksum.h"

namespace tapo::net {
namespace {

std::uint32_t sum16(std::span<const std::uint8_t> data, std::uint32_t acc) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i] << 8);
  return acc;
}

std::uint16_t fold(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum16(data, 0));
}

std::uint16_t tcp_checksum(std::uint32_t src_ip, std::uint32_t dst_ip,
                           std::span<const std::uint8_t> head,
                           std::size_t tcp_len) {
  std::uint32_t acc = 0;
  acc += src_ip >> 16;
  acc += src_ip & 0xffff;
  acc += dst_ip >> 16;
  acc += dst_ip & 0xffff;
  acc += 6;  // protocol: TCP
  acc += static_cast<std::uint32_t>(tcp_len);
  return fold(sum16(head, acc));
}

}  // namespace tapo::net
