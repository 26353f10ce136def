#include "tapo/flow.h"

#include <unordered_map>

#include "net/chunk.h"

namespace tapo::analysis {
namespace {

// Folds one packet's header facts into the flow's meta. Kept deliberately
// orientation-only: the caller decides from_server.
void fold_meta(FlowView& m, const net::CapturedPacket& cp, bool from_server) {
  const net::TcpHeader& tcp = cp.tcp;
  if (tcp.flags.syn && !tcp.flags.ack && !from_server) {
    m.saw_syn = true;
    m.client_isn = tcp.seq;
    m.syn_window = tcp.window;
    if (tcp.mss) m.mss = *tcp.mss;
    m.sack_permitted = tcp.sack_permitted;
    m.client_wscale = tcp.window_scale.value_or(0);
  } else if (tcp.flags.syn && tcp.flags.ack && from_server) {
    m.saw_synack = true;
    m.server_isn = tcp.seq;
  } else if (!from_server && m.init_rwnd_bytes == 0 && m.saw_synack &&
             tcp.flags.ack && !tcp.flags.syn) {
    m.init_rwnd_bytes = static_cast<std::uint32_t>(tcp.window)
                        << m.client_wscale;
  }
  if (tcp.flags.fin) m.saw_fin = true;
  if (from_server) {
    m.server_payload_bytes += cp.payload_len;
    if (cp.payload_len > 0 && !m.saw_server_data) {
      m.saw_server_data = true;
      m.first_server_data_seq = tcp.seq;
    }
  } else {
    m.client_payload_bytes += cp.payload_len;
  }
}

}  // namespace

DemuxOptions& DemuxOptions::with_server_port(std::uint16_t port) {
  server_port = port;
  return *this;
}

FlowAccumulator::FlowAccumulator(const DemuxOptions& opts) : opts_(opts) {}

void FlowAccumulator::reserve(std::size_t packets) {
  slot_of_.reserve(packets);
  packet_of_.reserve(packets);
}

void FlowAccumulator::ingest(const net::CapturedPacket& pkt) {
  // Hash the packet's canonical key to a flow slot (first-seen order),
  // tallying counts and orientation evidence. slot_of_ remembers each
  // packet's flow so finish() never rehashes.
  const net::FlowKey canon = pkt.key.canonical();
  auto [it, inserted] =
      table_.try_emplace(canon, static_cast<std::uint32_t>(accums_.size()));
  if (inserted) {
    accums_.emplace_back();
    accums_.back().canonical = canon;
  }
  Accum& a = accums_[it->second];
  slot_of_.push_back(it->second);
  packet_of_.push_back(&pkt);
  ++a.count;
  const bool from_a = pkt.key == canon;
  if (from_a) {
    a.payload_a += pkt.payload_len;
    if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) a.synack_from_a = true;
  } else {
    a.payload_b += pkt.payload_len;
    if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) a.synack_from_b = true;
  }
}

FlowViewSet FlowAccumulator::finish() {
  // Prefix-sum the counts into pool offsets (every flow gets a segment;
  // below-min flows are simply never wrapped in a view).
  FlowViewSet out;
  out.pool_.resize(packet_of_.size());
  std::uint32_t running = 0;
  for (Accum& a : accums_) {
    a.offset = running;
    running += a.count;
  }

  // Scatter packet addresses into each flow's segment, preserving capture
  // order within the flow.
  {
    std::vector<std::uint32_t> cursor(accums_.size());
    for (std::size_t i = 0; i < accums_.size(); ++i) {
      cursor[i] = accums_[i].offset;
    }
    for (std::size_t i = 0; i < packet_of_.size(); ++i) {
      out.pool_[cursor[slot_of_[i]]++] = packet_of_[i];
    }
  }
  // The pool now holds the membership; drop the per-packet bookkeeping
  // before the caller analyzes the views.
  std::vector<std::uint32_t>().swap(slot_of_);
  std::vector<const net::CapturedPacket*>().swap(packet_of_);

  // Orient each kept flow and walk its segment once to extract the
  // handshake/transfer meta.
  out.flows_.reserve(accums_.size());
  for (const Accum& a : accums_) {
    // Decide which endpoint is the server.
    bool server_is_a;
    if (opts_.server_port != 0) {
      server_is_a = a.canonical.src_port == opts_.server_port;
    } else if (a.synack_from_a != a.synack_from_b) {
      server_is_a = a.synack_from_a;
    } else {
      server_is_a = a.payload_a >= a.payload_b;
    }

    FlowView view;
    view.server_to_client = server_is_a ? a.canonical : a.canonical.reversed();
    view.packets = std::span<const net::CapturedPacket* const>(out.pool_)
                       .subspan(a.offset, a.count);
    for (const net::CapturedPacket* cp : view.packets) {
      fold_meta(view, *cp, cp->key == view.server_to_client);
    }
    if (view.init_rwnd_bytes == 0) view.init_rwnd_bytes = view.syn_window;
    view.mid_stream =
        !view.saw_syn && !view.saw_synack && view.saw_server_data;
    out.flows_.push_back(view);
  }
  return out;
}

FlowViewSet demux_flow_views(const net::PacketTrace& trace,
                             const DemuxOptions& opts) {
  FlowAccumulator acc(opts);
  acc.reserve(trace.size());
  for (const net::CapturedPacket& pkt : trace.packets()) acc.ingest(pkt);
  return acc.finish();
}

FlowViewSet demux_flow_views(const net::ChunkedTrace& trace,
                             const DemuxOptions& opts) {
  FlowAccumulator acc(opts);
  acc.reserve(trace.size());
  for (const net::TraceChunk& chunk : trace.chunks()) {
    for (const net::CapturedPacket& pkt : chunk.packets()) acc.ingest(pkt);
  }
  for (const net::CapturedPacket& pkt : trace.open_packets()) acc.ingest(pkt);
  return acc.finish();
}

}  // namespace tapo::analysis
