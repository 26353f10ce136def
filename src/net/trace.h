// Packet-trace representation shared by the simulator, the pcap codec and
// the TAPO analyzer.
//
// A CapturedPacket is one TCP/IPv4 packet observed at the capture point (the
// server NIC in this reproduction, matching the paper's tcpdump vantage
// point). The analyzer never cares about payload bytes, only lengths and
// header fields, so payloads are represented by their length alone; the pcap
// writer synthesizes zero payload bytes of the right size.
//
// Memory layout: CapturedPacket is a trivially copyable POD (no heap
// pointers — SACK blocks are inline in the TcpHeader), and a PacketTrace is
// a contiguous arena of them. Capacity is raw storage that append() and
// add() construct slot by slot, growth relocates the live slots with one
// memcpy, consumers read through std::span views, and whole traces move
// between pipeline stages (simulator -> analyzer -> sink) by pointer swap,
// never by copying packets. View lifetime rule: spans/indices into the
// arena stay valid until the next mutating call (append/add/sort_by_time)
// — demux after any sort, and only then hand out views.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>

#include "net/tcp_header.h"
#include "util/time.h"

namespace tapo::net {

/// Connection 4-tuple. Oriented: src is the packet sender.
struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  /// The same key with the two endpoints swapped (reply direction).
  FlowKey reversed() const { return {dst_ip, src_ip, dst_port, src_port}; }

  /// Direction-insensitive canonical form (smaller endpoint first) so both
  /// directions of a connection map to the same table entry.
  FlowKey canonical() const;

  bool operator==(const FlowKey&) const = default;
  std::string to_string() const;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const;
};

struct CapturedPacket {
  TimePoint timestamp;
  FlowKey key;
  TcpHeader tcp;
  std::uint32_t payload_len = 0;
  /// Snaplen truncation cut into this packet's TCP options: tail options
  /// (SACK blocks, timestamps) may be missing even though the lengths above
  /// reflect the full wire packet. Set by the pcap reader for records with
  /// caplen < wire len and by sim::apply_impairments' snaplen impairment;
  /// the analyzer counts it into the flow's CaptureQuality.
  bool truncated = false;

  Seq32 end_seq() const {
    // SYN and FIN each consume one sequence number.
    return tcp.seq + (payload_len + (tcp.flags.syn ? 1u : 0u) +
                      (tcp.flags.fin ? 1u : 0u));
  }
};
static_assert(std::is_trivially_copyable_v<CapturedPacket>,
              "CapturedPacket must stay a POD so PacketTrace can keep its "
              "packets in a flat arena and relocate them with memcpy");
// With the assert above, these make CapturedPacket an implicit-lifetime
// type that plain operator new storage can hold: arenas leave capacity
// uninitialized, free it without running destructors, and need no
// over-aligned allocation.
static_assert(std::is_trivially_destructible_v<CapturedPacket>,
              "arenas free packet storage without destroying the packets");
static_assert(alignof(CapturedPacket) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
              "arena storage comes from the non-aligned operator new");

/// Frees storage from allocate_packets().
struct PacketStorageDelete {
  void operator()(CapturedPacket* p) const noexcept { ::operator delete(p); }
};
/// Owning pointer to packet-arena storage.
using PacketStorage = std::unique_ptr<CapturedPacket[], PacketStorageDelete>;

/// Uninitialized storage for `n` packets, from the global operator new (not
/// malloc, so allocation counters that hook operator new see every arena).
/// The caller constructs each slot before reading it.
PacketStorage allocate_packets(std::size_t n);

/// An ordered (by capture time) sequence of packets, stored in one
/// contiguous arena. Move-only: whole traces are handed between pipeline
/// stages by pointer swap; use clone() for the rare deliberate deep copy.
class PacketTrace {
 public:
  PacketTrace() = default;
  PacketTrace(PacketTrace&&) noexcept = default;
  PacketTrace& operator=(PacketTrace&&) noexcept = default;
  PacketTrace(const PacketTrace&) = delete;
  PacketTrace& operator=(const PacketTrace&) = delete;

  /// Appends a default-initialized slot and returns it for in-place
  /// filling — the zero-copy write path used by the simulator capture
  /// point and the pcap reader.
  CapturedPacket& append();

  /// Appends a copy of `pkt`, constructed in the slot.
  void add(const CapturedPacket& pkt) {
    if (size_ == cap_) grow_to(size_ + 1);
    ::new (&slots_[size_++]) CapturedPacket(pkt);
  }
  void reserve(std::size_t n) { grow_to(n); }
  /// Drops the most recently appended packet (TraceBuilder rollback).
  void pop_back();

  /// Stable view of the whole arena; valid until the next mutating call.
  std::span<const CapturedPacket> packets() const { return {slots_.get(), size_}; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const CapturedPacket& operator[](std::size_t i) const { return slots_[i]; }

  /// Arena footprint in bytes (capacity, not just size).
  std::size_t capacity_bytes() const { return cap_ * sizeof(CapturedPacket); }
  /// capacity_bytes() once one more packet is appended, so a memory budget
  /// can make room before the growth allocates.
  std::size_t capacity_bytes_after_append() const {
    return grown_capacity(size_ + 1) * sizeof(CapturedPacket);
  }

  /// Stable-sorts by timestamp (pcap files are usually already ordered, but
  /// multi-interface captures may interleave slightly out of order).
  /// Invalidates any packet *indices* previously derived from this trace —
  /// sort first, demux after.
  void sort_by_time();

  /// Deliberate deep copy of the arena.
  PacketTrace clone() const;

 private:
  /// The growth policy: the capacity that holds `need` packets — the
  /// current one when it suffices, else 64 slots first, then doubling.
  std::size_t grown_capacity(std::size_t need) const {
    if (need <= cap_) return cap_;
    const std::size_t doubled = cap_ == 0 ? 64 : cap_ * 2;
    return doubled < need ? need : doubled;
  }
  void grow_to(std::size_t need);

  PacketStorage slots_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

class ChunkedTrace;

/// Append-only writer facade over a packet arena. Producers (the
/// simulator's server-NIC capture point, the pcap readers) obtain a slot
/// with begin_packet(), fill it in place, and either keep it or roll it
/// back when the frame turns out not to be a TCP packet — no intermediate
/// CapturedPacket is ever materialized outside the arena.
///
/// Two backends share the facade: a growing PacketTrace (batch) or a
/// ChunkedTrace (streaming — sealed chunks leave as the producer writes,
/// so residency stays bounded). A default-constructed builder is detached:
/// attached() is false and begin_packet() must not be called, which lets
/// capture points carry one builder member for both captured and
/// capture-off runs.
class TraceBuilder {
 public:
  TraceBuilder() = default;
  explicit TraceBuilder(PacketTrace& trace) : trace_(&trace) {}
  explicit TraceBuilder(ChunkedTrace& chunks) : chunks_(&chunks) {}

  bool attached() const { return trace_ != nullptr || chunks_ != nullptr; }

  CapturedPacket& begin_packet();
  /// Discards the slot handed out by the last begin_packet().
  void rollback_last();

 private:
  PacketTrace* trace_ = nullptr;
  ChunkedTrace* chunks_ = nullptr;
};

}  // namespace tapo::net
