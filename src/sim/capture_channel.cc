#include "sim/capture_channel.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/ipv4.h"
#include "telemetry/registry.h"
#include "util/rng.h"

namespace tapo::sim {
namespace {

void require_prob(double p, const char* what) {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument(std::string("CaptureImpairments: ") + what +
                                " must be in [0, 1), got " +
                                std::to_string(p));
  }
}

telemetry::Counter& injected_counter(const char* kind) {
  return telemetry::Registry::instance().counter("tapo_capture_injected_total",
                                                 {{"kind", kind}});
}

}  // namespace

bool CaptureImpairments::enabled() const {
  return drop_prob > 0.0 || burst_drop_prob > 0.0 || snaplen != 0 ||
         dup_prob > 0.0 || reorder_prob > 0.0 ||
         quantize > Duration::zero() || jitter > Duration::zero() ||
         skip_first != 0;
}

void CaptureImpairments::validate() const {
  require_prob(drop_prob, "drop_prob");
  require_prob(burst_drop_prob, "burst_drop_prob");
  require_prob(burst_continue_prob, "burst_continue_prob");
  require_prob(dup_prob, "dup_prob");
  require_prob(reorder_prob, "reorder_prob");
  if (snaplen != 0 &&
      snaplen < net::kIpv4HeaderLen + net::kTcpMinHeaderLen) {
    throw std::invalid_argument(
        "CaptureImpairments: snaplen must be 0 (full capture) or >= " +
        std::to_string(net::kIpv4HeaderLen + net::kTcpMinHeaderLen) +
        " wire bytes (IP + fixed TCP header), got " +
        std::to_string(snaplen));
  }
  if (quantize < Duration::zero()) {
    throw std::invalid_argument(
        "CaptureImpairments: quantization granularity must be >= 0");
  }
  if (jitter < Duration::zero()) {
    throw std::invalid_argument("CaptureImpairments: jitter must be >= 0");
  }
}

void CaptureChannelStats::merge(const CaptureChannelStats& o) {
  seen += o.seen;
  delivered += o.delivered;
  dropped += o.dropped;
  duplicated += o.duplicated;
  truncated += o.truncated;
  reordered += o.reordered;
  skipped_head += o.skipped_head;
}

namespace {

/// The impairment stage: records are fed one at a time and the survivors
/// land in the trace it owns. finish() must be called once after the last
/// record (it flushes the reorder hold slot).
class CaptureChannel {
 public:
  CaptureChannel(const CaptureImpairments& impairments, std::size_t expected)
      : imp_(impairments), rng_(impairments.seed) {
    out_.reserve(expected);
  }

  void feed(const net::CapturedPacket& pkt);
  /// Flushes the hold slot and hands over the impaired trace.
  net::PacketTrace finish();

  const CaptureChannelStats& stats() const { return stats_; }

 private:
  /// Applies the per-record impairments (quantize, jitter, truncate) and
  /// writes the record — plus a mirror duplicate when drawn — to the trace.
  void emit(const net::CapturedPacket& pkt);
  net::CapturedPacket impair_record(const net::CapturedPacket& pkt);

  net::PacketTrace out_;
  CaptureImpairments imp_;
  Rng rng_;
  CaptureChannelStats stats_;
  bool in_burst_ = false;
  std::optional<net::CapturedPacket> held_;  // reorder hold slot
};

void CaptureChannel::feed(const net::CapturedPacket& pkt) {
  ++stats_.seen;

  // Mid-stream start: capture rotation began after the flow did.
  if (stats_.seen <= imp_.skip_first) {
    ++stats_.skipped_head;
    injected_counter("mid_stream_skip").add();
    return;
  }

  // Capture drop, bursty (Gilbert-Elliott) then i.i.d. Burst state advances
  // per record regardless of the i.i.d. draw so the two are independent.
  if (imp_.burst_drop_prob > 0.0) {
    if (in_burst_) {
      in_burst_ = rng_.chance(imp_.burst_continue_prob);
      ++stats_.dropped;
      injected_counter("drop").add();
      return;
    }
    if (rng_.chance(imp_.burst_drop_prob)) {
      in_burst_ = rng_.chance(imp_.burst_continue_prob);
      ++stats_.dropped;
      injected_counter("drop").add();
      return;
    }
  }
  if (imp_.drop_prob > 0.0 && rng_.chance(imp_.drop_prob)) {
    ++stats_.dropped;
    injected_counter("drop").add();
    return;
  }

  // Local reordering: hold this record one slot so it lands after its
  // successor. A held record is never held twice (adjacent swap only).
  if (imp_.reorder_prob > 0.0) {
    if (held_) {
      const net::CapturedPacket first = pkt;
      const net::CapturedPacket second = *held_;
      held_.reset();
      ++stats_.reordered;
      injected_counter("reorder").add();
      emit(first);
      emit(second);
      return;
    }
    if (rng_.chance(imp_.reorder_prob)) {
      held_ = pkt;
      return;
    }
  }

  emit(pkt);
}

net::PacketTrace CaptureChannel::finish() {
  if (held_) {
    // Nothing followed the held record; it comes out last, un-swapped.
    const net::CapturedPacket last = *held_;
    held_.reset();
    emit(last);
  }
  return std::move(out_);
}

net::CapturedPacket CaptureChannel::impair_record(
    const net::CapturedPacket& pkt) {
  net::CapturedPacket out = pkt;

  if (imp_.quantize > Duration::zero()) {
    out.timestamp = floor_to(out.timestamp, imp_.quantize);
  }
  if (imp_.jitter > Duration::zero()) {
    const std::int64_t j = imp_.jitter.us();
    out.timestamp =
        TimePoint::from_us(out.timestamp.us() + rng_.uniform_int(-j, j));
  }

  if (imp_.snaplen != 0) {
    // tcpdump -s semantics: snaplen caps wire bytes captured from the IP
    // header on. Cutting into the TCP options drops the tail options in
    // wire (serialize) order; payload-only cuts are invisible here because
    // packet lengths come from the IP header, not the captured bytes.
    const std::size_t hdr_budget =
        imp_.snaplen > net::kIpv4HeaderLen ? imp_.snaplen - net::kIpv4HeaderLen
                                           : 0;
    const std::size_t wire_hdr = out.tcp.header_len();
    if (hdr_budget < wire_hdr) {
      std::size_t used = net::kTcpMinHeaderLen;
      bool cut = false;
      auto fits = [&](std::size_t cost) {
        if (cut || used + cost > hdr_budget) {
          cut = true;
          return false;
        }
        used += cost;
        return true;
      };
      if (out.tcp.mss && !fits(4)) out.tcp.mss.reset();
      if (out.tcp.window_scale && !fits(3)) out.tcp.window_scale.reset();
      if (out.tcp.sack_permitted && !fits(2)) out.tcp.sack_permitted = false;
      if (out.tcp.timestamps && !fits(10)) out.tcp.timestamps.reset();
      if (!out.tcp.sack_blocks.empty()) {
        // Partial SACK option: keep the leading blocks that fit after the
        // 2-byte kind/len prefix.
        std::size_t keep = 0;
        if (!cut && used + 2 <= hdr_budget) {
          keep = std::min(out.tcp.sack_blocks.size(),
                          (hdr_budget - used - 2) / 8);
        }
        if (keep < out.tcp.sack_blocks.size()) {
          cut = true;
          net::SackList kept;
          for (std::size_t i = 0; i < keep; ++i) {
            kept.push_back(out.tcp.sack_blocks[i]);
          }
          out.tcp.sack_blocks = kept;
        }
      }
      if (cut) {
        out.truncated = true;
        ++stats_.truncated;
        injected_counter("truncate").add();
      }
    }
  }

  return out;
}

void CaptureChannel::emit(const net::CapturedPacket& pkt) {
  const net::CapturedPacket rec = impair_record(pkt);
  out_.add(rec);
  ++stats_.delivered;
  if (imp_.dup_prob > 0.0 && rng_.chance(imp_.dup_prob)) {
    // Mirror duplicate: identical header and timestamp, back to back.
    out_.add(rec);
    ++stats_.delivered;
    ++stats_.duplicated;
    injected_counter("duplicate").add();
  }
}

}  // namespace

net::PacketTrace apply_impairments(const net::PacketTrace& pristine,
                                   const CaptureImpairments& impairments,
                                   CaptureChannelStats* stats) {
  impairments.validate();
  if (!impairments.enabled()) {
    if (stats != nullptr) {
      stats->seen += pristine.size();
      stats->delivered += pristine.size();
    }
    return pristine.clone();
  }
  CaptureChannel ch(impairments, pristine.size());
  for (const net::CapturedPacket& p : pristine.packets()) ch.feed(p);
  net::PacketTrace out = ch.finish();
  if (stats != nullptr) stats->merge(ch.stats());
  return out;
}

}  // namespace tapo::sim
