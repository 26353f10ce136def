#pragma once
// Hand-built TAPO flows with ground truth known by construction. A
// FlowBuilder appends CapturedPackets to a PacketTrace, one packet at a
// time, and analyze() runs the analyzer over a FlowView bound to them. The
// view's meta (handshake facts) is set by hand in `flow`, so a test can
// change it (e.g. saw_syn = false) without crafting the packets that a
// demux would extract it from.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/trace.h"
#include "tapo/analyzer.h"

namespace tapo::test {

constexpr std::uint32_t kMss = 1000;
constexpr std::uint32_t kServerIsn = 5000;
constexpr std::uint32_t kClientIsn = 1000;
constexpr std::uint32_t kBigWindow = 63000;

/// Builds one flow packet by packet. Times are absolute seconds.
struct FlowBuilder {
  /// Hand-set meta; analyze() binds its packets to `trace`.
  analysis::FlowView flow;
  net::PacketTrace trace;
  /// The client's next sequence number: requests advance it, and every
  /// client packet carries it. The mimic reads a client packet's seq only
  /// for capture-duplicate suppression, which these flows leave off.
  net::Seq32 client_seq = net::Seq32{kClientIsn + 1};

  FlowBuilder() {
    flow.server_to_client = {0xc0a80101, 0x0a000001, 80, 40001};
    flow.saw_syn = true;
    flow.saw_synack = true;
    flow.server_isn = net::Seq32{kServerIsn};
    flow.mss = kMss;
    flow.init_rwnd_bytes = kBigWindow;
  }

  static net::Seq32 seg(int i) {
    return net::Seq32{kServerIsn + 1 + static_cast<std::uint32_t>(i) * kMss};
  }

  /// Appends a packet at t in the given direction. The reference is valid
  /// until the next append.
  net::CapturedPacket& add(double t, bool from_server) {
    net::CapturedPacket& p = trace.append();
    p.timestamp = TimePoint::from_us(static_cast<std::int64_t>(t * 1e6));
    p.key = from_server ? flow.server_to_client
                        : flow.server_to_client.reversed();
    p.tcp.window = kBigWindow;
    return p;
  }

  /// Standard handshake: SYN at t, SYN-ACK at t, client ACK at t+rtt.
  /// Seeds the mimic's SRTT with `rtt`.
  void handshake(double t = 0.0, double rtt = 0.1) {
    auto& syn = add(t, false);
    syn.tcp.seq = net::Seq32{kClientIsn};
    syn.tcp.flags.syn = true;
    auto& synack = add(t, true);
    synack.tcp.seq = net::Seq32{kServerIsn};
    synack.tcp.ack = net::Seq32{kClientIsn + 1};
    synack.tcp.flags.syn = true;
    synack.tcp.flags.ack = true;
    auto& ack = add(t + rtt, false);
    ack.tcp.seq = net::Seq32{kClientIsn + 1};
    ack.tcp.ack = net::Seq32{kServerIsn + 1};
    ack.tcp.flags.ack = true;
  }

  /// Client request of `len` bytes arriving at t.
  void request(double t, std::uint32_t len = 200) {
    auto& p = add(t, false);
    p.tcp.seq = client_seq;
    p.tcp.flags.ack = true;
    p.payload_len = len;
    client_seq = client_seq + len;
  }

  /// Server data segment i at t (new transmission or retransmission —
  /// the analyzer decides from sequence numbers).
  void data(double t, int i, std::uint32_t len = kMss) {
    auto& p = add(t, true);
    p.tcp.seq = seg(i);
    p.tcp.flags.ack = true;
    p.payload_len = len;
  }

  /// Server FIN (no payload) at the start of segment i.
  void fin(double t, int i) {
    auto& p = add(t, true);
    p.tcp.seq = seg(i);
    p.tcp.flags.ack = true;
    p.tcp.flags.fin = true;
  }

  /// Client ACK at t, cumulative up to segment `upto` (exclusive), with
  /// optional SACK blocks given as segment index ranges.
  void ack(double t, int upto,
           const std::vector<std::pair<int, int>>& sack_segs = {},
           std::uint32_t window = kBigWindow) {
    std::vector<net::SackBlock> blocks;
    for (const auto& [s, e] : sack_segs) blocks.push_back({seg(s), seg(e)});
    ack_at(t, seg(upto), blocks, window);
  }

  /// Client ACK at t with a raw cumulative ACK and no SACK blocks.
  void ack(double t, net::Seq32 cum_ack, std::uint32_t window = kBigWindow) {
    ack_at(t, cum_ack, {}, window);
  }

  /// Client ACK at t with a raw cumulative ACK and raw SACK blocks, for
  /// edges that fall mid-segment (and DSACKs).
  void ack_at(double t, net::Seq32 cum_ack,
              const std::vector<net::SackBlock>& blocks = {},
              std::uint32_t window = kBigWindow) {
    auto& p = add(t, false);
    p.tcp.seq = client_seq;
    p.tcp.ack = cum_ack;
    p.tcp.flags.ack = true;
    p.tcp.window = static_cast<std::uint16_t>(window);
    for (const auto& b : blocks) {
      if (!p.tcp.sack_blocks.push_back(b)) {
        ADD_FAILURE() << "more SACK blocks than fit in one TCP header ("
                      << net::SackList::kMaxBlocks << ")";
      }
    }
  }

  analysis::FlowAnalysis analyze(analysis::AnalyzerConfig cfg = {}) const {
    std::vector<const net::CapturedPacket*> packets;
    packets.reserve(trace.size());
    for (const net::CapturedPacket& p : trace.packets()) packets.push_back(&p);
    analysis::FlowView view = flow;
    view.packets = packets;
    return analysis::Analyzer(cfg).analyze_flow(view);
  }
};

}  // namespace tapo::test
