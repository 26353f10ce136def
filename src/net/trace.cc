#include "net/trace.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <tuple>

#include "net/chunk.h"
#include "net/ipv4.h"
#include "util/strings.h"

namespace tapo::net {

FlowKey FlowKey::canonical() const {
  const auto a = std::make_tuple(src_ip, src_port);
  const auto b = std::make_tuple(dst_ip, dst_port);
  return a <= b ? *this : reversed();
}

std::string FlowKey::to_string() const {
  return str_format("%s:%u -> %s:%u", ipv4_to_string(src_ip).c_str(), src_port,
                    ipv4_to_string(dst_ip).c_str(), dst_port);
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const {
  // FNV-1a over the tuple fields.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(k.src_ip);
  mix(k.dst_ip);
  mix(k.src_port);
  mix(k.dst_port);
  return static_cast<std::size_t>(h);
}

PacketStorage allocate_packets(std::size_t n) {
  if (n > std::numeric_limits<std::size_t>::max() / sizeof(CapturedPacket)) {
    throw std::bad_array_new_length();
  }
  return PacketStorage(
      static_cast<CapturedPacket*>(::operator new(n * sizeof(CapturedPacket))));
}

CapturedPacket& PacketTrace::append() {
  if (size_ == cap_) grow_to(size_ + 1);
  return *::new (&slots_[size_++]) CapturedPacket{};
}

void PacketTrace::pop_back() {
  if (size_ > 0) --size_;
}

void PacketTrace::grow_to(std::size_t need) {
  if (need <= cap_) return;
  // Only the live slots move, with one flat copy (packets are trivially
  // copyable by static_assert); the new capacity stays uninitialized.
  const std::size_t new_cap = grown_capacity(need);
  PacketStorage new_slots = allocate_packets(new_cap);
  if (size_ > 0) {
    std::memcpy(new_slots.get(), slots_.get(), size_ * sizeof(CapturedPacket));
  }
  slots_ = std::move(new_slots);
  cap_ = new_cap;
}

void PacketTrace::sort_by_time() {
  std::stable_sort(slots_.get(), slots_.get() + size_,
                   [](const CapturedPacket& a, const CapturedPacket& b) {
                     return a.timestamp < b.timestamp;
                   });
}

CapturedPacket& TraceBuilder::begin_packet() {
  return trace_ != nullptr ? trace_->append() : chunks_->append();
}

void TraceBuilder::rollback_last() {
  if (trace_ != nullptr) {
    trace_->pop_back();
  } else {
    chunks_->pop_back();
  }
}

PacketTrace PacketTrace::clone() const {
  PacketTrace out;
  out.grow_to(size_);
  if (size_ > 0) {
    std::memcpy(out.slots_.get(), slots_.get(), size_ * sizeof(CapturedPacket));
  }
  out.size_ = size_;
  return out;
}

}  // namespace tapo::net
