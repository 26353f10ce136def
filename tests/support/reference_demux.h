#pragma once
// A two-pass reference for demux_flow_views, written for plainness, not
// speed: first the membership of every flow, in first-packet order, then a
// walk over each flow's packets, in capture order, that orients the flow
// and folds its handshake meta. Tests compare the one-pass FlowAccumulator
// against it view by view.
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "tapo/flow.h"

namespace tapo::test {

struct ReferenceFlow {
  /// Every FlowView field but `packets`, which stays empty.
  analysis::FlowView meta;
  std::vector<const net::CapturedPacket*> packets;
};

inline std::vector<ReferenceFlow> reference_demux(
    std::span<const net::CapturedPacket> trace,
    const analysis::DemuxOptions& opts = {}) {
  struct Membership {
    net::FlowKey canonical;
    std::vector<const net::CapturedPacket*> packets;
  };
  std::vector<Membership> flows;
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> slot;
  for (const net::CapturedPacket& pkt : trace) {
    const net::FlowKey canon = pkt.key.canonical();
    const auto [it, inserted] = slot.try_emplace(canon, flows.size());
    if (inserted) flows.push_back({canon, {}});
    flows[it->second].packets.push_back(&pkt);
  }

  std::vector<ReferenceFlow> out;
  for (Membership& f : flows) {
    // Endpoint a is canonical.src.
    std::uint64_t payload_a = 0, payload_b = 0;
    bool synack_a = false, synack_b = false;
    for (const net::CapturedPacket* cp : f.packets) {
      const bool synack = cp->tcp.flags.syn && cp->tcp.flags.ack;
      if (cp->key == f.canonical) {
        payload_a += cp->payload_len;
        synack_a = synack_a || synack;
      } else {
        payload_b += cp->payload_len;
        synack_b = synack_b || synack;
      }
    }
    const bool port_a = f.canonical.src_port == opts.server_port;
    const bool port_b = f.canonical.dst_port == opts.server_port;
    bool server_is_a;
    if (opts.server_port != 0 && port_a != port_b) {
      server_is_a = port_a;
    } else if (synack_a != synack_b) {
      server_is_a = synack_a;
    } else {
      server_is_a = payload_a >= payload_b;
    }

    analysis::FlowView m;
    m.server_to_client = server_is_a ? f.canonical : f.canonical.reversed();
    for (const net::CapturedPacket* cp : f.packets) {
      const net::TcpHeader& tcp = cp->tcp;
      const bool from_server = cp->key == m.server_to_client;
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
      if (from_server && cp->payload_len > 0 && !m.saw_server_data) {
        m.saw_server_data = true;
        m.first_server_data_seq = tcp.seq;
      }
    }
    if (m.init_rwnd_bytes == 0) m.init_rwnd_bytes = m.syn_window;
    m.mid_stream = !m.saw_syn && !m.saw_synack && m.saw_server_data;
    out.push_back({m, std::move(f.packets)});
  }
  return out;
}

}  // namespace tapo::test
