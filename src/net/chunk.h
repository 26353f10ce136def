// Fixed-size trace chunks: the bounded-memory counterpart of PacketTrace.
//
// A TraceChunk is a sealed-capacity arena of CapturedPacket PODs. A
// ChunkedTrace strings chunks together behind the same append/rollback
// surface TraceBuilder exposes over a PacketTrace, but instead of growing
// one arena forever it *seals* each chunk when the next one starts and
// either hands it to a sink (streaming mode — the chunk's memory is
// released as soon as the consumer drops it) or retains it (batch mode).
//
// Sealing is lazy: a full chunk is only emitted when the following append
// arrives, so TraceBuilder::rollback_last can always reach the packet it
// just claimed — the pcap readers' claim-then-rollback parse style keeps
// working unchanged on the chunked path.
//
// Budget accounting is RAII: a chunk constructed against a
// util::MemoryBudget charges its capacity up front and releases it on
// destruction, wherever the chunk ends up — this is the "bytes in live
// chunks" half of the pipeline ledger (DESIGN.md §14).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "net/trace.h"
#include "util/memory_budget.h"

namespace tapo::net {

/// One fixed-capacity arena of packets. Move-only; the capacity is chosen
/// at construction and never grows — full() tells the producer to start
/// the next chunk.
class TraceChunk {
 public:
  TraceChunk() = default;
  explicit TraceChunk(std::size_t capacity_packets,
                      util::MemoryBudget* budget = nullptr);
  ~TraceChunk();
  TraceChunk(TraceChunk&& other) noexcept;
  TraceChunk& operator=(TraceChunk&& other) noexcept;
  TraceChunk(const TraceChunk&) = delete;
  TraceChunk& operator=(const TraceChunk&) = delete;

  /// Claims the next slot. Precondition: !full().
  CapturedPacket& append();
  /// Appends a copy of `pkt`, constructed in the slot. Precondition:
  /// !full().
  void add(const CapturedPacket& pkt);
  /// Drops the most recently appended packet (TraceBuilder rollback).
  void pop_back();

  std::span<const CapturedPacket> packets() const { return {slots_.get(), size_}; }
  const CapturedPacket& operator[](std::size_t i) const { return slots_[i]; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == cap_; }
  /// Arena footprint in bytes (what the budget was charged).
  std::size_t bytes() const { return cap_ * sizeof(CapturedPacket); }

 private:
  void release_budget();

  PacketStorage slots_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  util::MemoryBudget* budget_ = nullptr;
};

/// Append surface producing sealed TraceChunks. With a sink: streaming —
/// every sealed chunk is handed over immediately and only the open tail
/// chunk stays resident. Without a sink: the sealed chunks are retained
/// in order (a chunked drop-in for a growing PacketTrace).
class ChunkedTrace {
 public:
  using ChunkSink = std::function<void(TraceChunk&&)>;

  /// Default chunk granularity: ~4K packets per chunk keeps the open-chunk
  /// residency in the hundreds of KiB while amortizing sink overhead.
  static constexpr std::size_t kDefaultChunkPackets = 4096;

  explicit ChunkedTrace(std::size_t chunk_packets = kDefaultChunkPackets,
                        ChunkSink sink = nullptr,
                        util::MemoryBudget* budget = nullptr);

  CapturedPacket& append();
  /// Appends a copy of `pkt`, constructed in the slot.
  void add(const CapturedPacket& pkt);
  /// Drops the most recently appended packet. Lazy sealing guarantees it
  /// still lives in the open chunk.
  void pop_back();

  /// Seals and emits the open tail chunk (end of input). Appending after
  /// this starts a fresh chunk.
  void seal_open();

  /// Total packets appended (net of rollbacks), across all chunks.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t chunk_packets() const { return chunk_packets_; }

  /// Retained chunks (batch mode; empty when a sink drains them).
  const std::vector<TraceChunk>& chunks() const { return retained_; }
  /// Packets in the open (unsealed) tail chunk, after the retained ones.
  std::span<const CapturedPacket> open_packets() const {
    return open_.packets();
  }
  /// Materializes retained + open packets into one contiguous trace
  /// (batch-mode adapter; order preserved).
  PacketTrace to_trace() const;

 private:
  void emit(TraceChunk&& chunk);
  /// The open chunk, with room for one more packet (counted in size()).
  TraceChunk& claim_open();

  std::size_t chunk_packets_;
  ChunkSink sink_;
  util::MemoryBudget* budget_;
  TraceChunk open_;
  std::vector<TraceChunk> retained_;
  std::size_t size_ = 0;
};

}  // namespace tapo::net
