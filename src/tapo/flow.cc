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
    m.syn_window = tcp.window;
    if (tcp.mss) m.mss = *tcp.mss;
    m.client_wscale = tcp.window_scale.value_or(0);
  } else if (tcp.flags.syn && tcp.flags.ack && from_server) {
    m.saw_synack = true;
    m.server_isn = tcp.seq;
  } else if (!from_server && m.init_rwnd_bytes == 0 && m.saw_synack &&
             tcp.flags.ack && !tcp.flags.syn) {
    m.init_rwnd_bytes = static_cast<std::uint32_t>(tcp.window)
                        << m.client_wscale;
  }
  if (from_server && cp.payload_len > 0 && !m.saw_server_data) {
    m.saw_server_data = true;
    m.first_server_data_seq = tcp.seq;
  }
}

}  // namespace

FlowAccumulator::FlowAccumulator(const DemuxOptions& opts) : opts_(opts) {}

void FlowAccumulator::reserve(std::size_t packets) {
  packet_of_.reserve(packets);
}

void FlowAccumulator::ingest(const net::CapturedPacket& pkt) {
  // A packet of the previous packet's connection reuses its slot; any other
  // hashes its canonical key to a flow slot (first-seen order).
  bool from_a;
  if (!accums_.empty() && pkt.key == run_a_) {
    from_a = true;
  } else if (!accums_.empty() && pkt.key == run_b_) {
    from_a = false;
  } else {
    const net::FlowKey canon = pkt.key.canonical();
    auto [it, inserted] =
        table_.try_emplace(canon, static_cast<std::uint32_t>(accums_.size()));
    if (inserted) {
      if (accums_.size() == 1) {
        // A second flow: from here on finish() scatters, so record the
        // slot of every packet so far (all the first flow's).
        slot_of_.reserve(packet_of_.capacity());
        slot_of_.assign(packet_of_.size(), 0);
      }
      accums_.emplace_back();
      accums_.back().canonical = canon;
    }
    run_slot_ = it->second;
    run_a_ = canon;
    run_b_ = canon.reversed();
    from_a = pkt.key == canon;
  }
  Accum& a = accums_[run_slot_];
  if (accums_.size() > 1) slot_of_.push_back(run_slot_);
  packet_of_.push_back(&pkt);
  ++a.count;
  if (from_a) {
    a.payload_a += pkt.payload_len;
    if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) a.synack_from_a = true;
  } else {
    a.payload_b += pkt.payload_len;
    if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) a.synack_from_b = true;
  }
  // Fold the meta under both orientations now, while the packet is in
  // cache; finish() keeps the one it picks. (A self-connection, a == b,
  // always orients to a, so meta_b never serves one.)
  fold_meta(a.meta_a, pkt, from_a);
  fold_meta(a.meta_b, pkt, !from_a);
}

FlowViewSet FlowAccumulator::finish() {
  FlowViewSet out;
  if (accums_.size() == 1) {
    // One flow: the membership list, in capture order, is the pool.
    out.pool_ = std::move(packet_of_);
  } else {
    // Prefix-sum the counts into pool offsets, then scatter packet
    // addresses into each flow's segment, preserving capture order within
    // the flow.
    out.pool_.resize(packet_of_.size());
    std::uint32_t running = 0;
    for (Accum& a : accums_) {
      a.offset = running;
      running += a.count;
    }
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

  // Orient each flow and take the meta folded under that orientation.
  out.flows_.reserve(accums_.size());
  for (const Accum& a : accums_) {
    // The port decides when exactly one endpoint uses it; otherwise the
    // endpoint that sent a SYN-ACK, falling back to the one with more
    // payload.
    const bool port_a = a.canonical.src_port == opts_.server_port;
    const bool port_b = a.canonical.dst_port == opts_.server_port;
    bool server_is_a;
    if (opts_.server_port != 0 && port_a != port_b) {
      server_is_a = port_a;
    } else if (a.synack_from_a != a.synack_from_b) {
      server_is_a = a.synack_from_a;
    } else {
      server_is_a = a.payload_a >= a.payload_b;
    }

    FlowView view = server_is_a ? a.meta_a : a.meta_b;
    view.server_to_client = server_is_a ? a.canonical : a.canonical.reversed();
    view.packets = std::span<const net::CapturedPacket* const>(out.pool_)
                       .subspan(a.offset, a.count);
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
