#include "net/chunk.h"

#include <cassert>
#include <new>
#include <utility>

namespace tapo::net {

TraceChunk::TraceChunk(std::size_t capacity_packets, util::MemoryBudget* budget)
    : slots_(allocate_packets(capacity_packets)),
      cap_(capacity_packets),
      budget_(budget) {
  if (budget_ != nullptr) budget_->charge(bytes());
}

TraceChunk::~TraceChunk() { release_budget(); }

TraceChunk::TraceChunk(TraceChunk&& other) noexcept
    : slots_(std::move(other.slots_)),
      size_(other.size_),
      cap_(other.cap_),
      budget_(other.budget_) {
  other.size_ = 0;
  other.cap_ = 0;
  other.budget_ = nullptr;
}

TraceChunk& TraceChunk::operator=(TraceChunk&& other) noexcept {
  if (this != &other) {
    release_budget();
    slots_ = std::move(other.slots_);
    size_ = other.size_;
    cap_ = other.cap_;
    budget_ = other.budget_;
    other.size_ = 0;
    other.cap_ = 0;
    other.budget_ = nullptr;
  }
  return *this;
}

void TraceChunk::release_budget() {
  if (budget_ != nullptr && cap_ > 0) budget_->release(bytes());
  budget_ = nullptr;
}

CapturedPacket& TraceChunk::append() {
  assert(size_ < cap_);
  return *::new (&slots_[size_++]) CapturedPacket{};
}

void TraceChunk::add(const CapturedPacket& pkt) {
  assert(size_ < cap_);
  ::new (&slots_[size_++]) CapturedPacket(pkt);
}

void TraceChunk::pop_back() {
  if (size_ > 0) --size_;
}

ChunkedTrace::ChunkedTrace(std::size_t chunk_packets, ChunkSink sink,
                           util::MemoryBudget* budget)
    : chunk_packets_(chunk_packets == 0 ? 1 : chunk_packets),
      sink_(std::move(sink)),
      budget_(budget) {}

void ChunkedTrace::emit(TraceChunk&& chunk) {
  if (sink_) {
    sink_(std::move(chunk));
  } else {
    retained_.push_back(std::move(chunk));
  }
}

TraceChunk& ChunkedTrace::claim_open() {
  if (open_.capacity() == 0) {
    open_ = TraceChunk(chunk_packets_, budget_);
  } else if (open_.full()) {
    // Lazy seal: the previous chunk leaves only now that a new packet
    // arrives, so the last appended packet was still reachable for
    // rollback until this moment.
    emit(std::move(open_));
    open_ = TraceChunk(chunk_packets_, budget_);
  }
  ++size_;
  return open_;
}

CapturedPacket& ChunkedTrace::append() { return claim_open().append(); }

void ChunkedTrace::add(const CapturedPacket& pkt) { claim_open().add(pkt); }

void ChunkedTrace::pop_back() {
  if (open_.empty()) return;
  open_.pop_back();
  --size_;
}

void ChunkedTrace::seal_open() {
  if (!open_.empty()) emit(std::move(open_));
  open_ = TraceChunk();
}

PacketTrace ChunkedTrace::to_trace() const {
  PacketTrace out;
  out.reserve(size_);
  for (const TraceChunk& c : retained_) {
    for (const CapturedPacket& pkt : c.packets()) out.add(pkt);
  }
  for (const CapturedPacket& pkt : open_.packets()) out.add(pkt);
  return out;
}

}  // namespace tapo::net
