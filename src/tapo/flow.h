// Flow reconstruction: demultiplexes a server-side packet trace into
// per-connection flows oriented server->client, and extracts the handshake
// parameters TAPO's classifier needs (MSS, SACK permission, window scale,
// initial receive window — Table 2's "receiver side" category).
//
// A FlowView is the one flow representation: the flow's meta plus a span
// of packet *pointers* into the demuxed storage, produced by
// demux_flow_views. Nothing per packet is copied; the analyzer reads the
// packets in place.
//
// View lifetime rule: a FlowView borrows the storage that was ingested (a
// PacketTrace arena, or a ChunkedTrace's retained chunks and open tail) and
// the FlowViewSet pointer pool; it is valid until either is mutated or
// destroyed. PacketTrace::sort_by_time moves packets, so sort first, demux
// after.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/trace.h"

namespace tapo::analysis {

/// One reconstructed flow: its handshake/transfer facts plus a span of
/// pointers to its packets wherever they were ingested. Packets keep
/// capture order. Borrowed storage — see the lifetime rule in the file
/// comment.
struct FlowView {
  net::FlowKey server_to_client;  // orientation key (server is src)

  bool saw_syn = false;
  bool saw_synack = false;
  bool saw_fin = false;

  net::Seq32 client_isn;
  net::Seq32 server_isn;
  std::uint16_t mss = 1448;
  bool sack_permitted = false;
  std::uint8_t client_wscale = 0;
  /// Window advertised by the client in its SYN (unscaled, bytes).
  std::uint32_t syn_window = 0;
  /// First data-phase window from the client, scaled (bytes). This is the
  /// "initial rwnd" the paper studies (Fig. 6 / Table 4); falls back to
  /// syn_window when the client never sent a data-phase ACK.
  std::uint32_t init_rwnd_bytes = 0;

  std::uint64_t server_payload_bytes = 0;  // sum over packets (incl. retrans)
  std::uint64_t client_payload_bytes = 0;

  /// Capture started mid-connection: no SYN or SYN-ACK was observed but
  /// server data was (rotated captures, mid-stream taps). The mimic then
  /// seeds its sequence state from first_server_data_seq instead of the
  /// (never seen) ISN and records the degradation in CaptureQuality.
  bool mid_stream = false;
  bool saw_server_data = false;
  /// Sequence number of the first server data packet in capture order
  /// (valid when saw_server_data).
  net::Seq32 first_server_data_seq;

  std::span<const net::CapturedPacket* const> packets;

  std::size_t size() const { return packets.size(); }
  const net::CapturedPacket& packet(std::size_t i) const {
    return *packets[i];
  }
};

struct DemuxOptions {
  /// The server's port; 0 auto-detects (the endpoint that sent a SYN-ACK,
  /// falling back to the endpoint with more payload bytes).
  std::uint16_t server_port = 0;

  // Fluent construction (aggregate-init keeps working).
  DemuxOptions& with_server_port(std::uint16_t port);
};

/// Result of a view-based demux: the per-flow views plus the pointer pool
/// they span. Movable (spans chase the pool's heap buffer); not
/// copyable — copying would silently duplicate the pool while the views
/// keep pointing at the original.
class FlowViewSet {
 public:
  FlowViewSet() = default;
  FlowViewSet(FlowViewSet&&) noexcept = default;
  FlowViewSet& operator=(FlowViewSet&&) noexcept = default;
  FlowViewSet(const FlowViewSet&) = delete;
  FlowViewSet& operator=(const FlowViewSet&) = delete;

  const std::vector<FlowView>& flows() const { return flows_; }
  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }
  const FlowView& operator[](std::size_t i) const { return flows_[i]; }
  auto begin() const { return flows_.begin(); }
  auto end() const { return flows_.end(); }

  /// Pointer-pool footprint — the entire per-packet cost of a view demux.
  std::size_t pool_bytes() const {
    return pool_.size() * sizeof(const net::CapturedPacket*);
  }

 private:
  friend class FlowAccumulator;
  std::vector<const net::CapturedPacket*> pool_;
  std::vector<FlowView> flows_;
};

/// The demux engine behind every analysis path. Packets fold in one at a
/// time, in place — per canonical key it accumulates membership (packet
/// addresses) and orientation evidence (payload per endpoint, SYN-ACK
/// sightings) — and finish() orients each kept flow, in first-packet
/// order, and extracts its meta.
class FlowAccumulator {
 public:
  explicit FlowAccumulator(const DemuxOptions& opts);

  /// Pre-sizes the per-packet bookkeeping for `packets` ingests.
  void reserve(std::size_t packets);

  /// Folds in `pkt`, in capture order. The packet is borrowed, not copied:
  /// it must stay at this address while the resulting views are in use.
  void ingest(const net::CapturedPacket& pkt);

  /// Builds the per-flow views over the ingested packets and releases the
  /// per-packet bookkeeping. Call once, after the last ingest.
  FlowViewSet finish();

 private:
  /// Per-flow tallies; packet membership lives in packet_of_/slot_of_ and
  /// is scattered into the FlowViewSet pool by finish().
  struct Accum {
    net::FlowKey canonical;
    std::uint32_t count = 0;
    std::uint32_t offset = 0;  // filled by finish()'s prefix sum
    // Per-endpoint bookkeeping keyed by "is packet's src == canonical.src".
    std::uint64_t payload_a = 0, payload_b = 0;
    bool synack_from_a = false, synack_from_b = false;
  };

  DemuxOptions opts_;
  std::unordered_map<net::FlowKey, std::uint32_t, net::FlowKeyHash> table_;
  std::vector<Accum> accums_;
  std::vector<std::uint32_t> slot_of_;  // per ingested packet: flow slot
  std::vector<const net::CapturedPacket*> packet_of_;  // ... and its address
};

/// Splits `trace` into non-owning per-flow views without copying a single
/// packet. Packets within a flow keep capture order; flows appear in
/// first-packet order.
FlowViewSet demux_flow_views(const net::PacketTrace& trace,
                             const DemuxOptions& opts = {});
/// Same, over a retained ChunkedTrace: the retained chunks, then the open
/// tail, demuxed in place (nothing is concatenated).
FlowViewSet demux_flow_views(const net::ChunkedTrace& trace,
                             const DemuxOptions& opts = {});

}  // namespace tapo::analysis
