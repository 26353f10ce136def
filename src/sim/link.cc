#include "sim/link.h"

#include <algorithm>

#include "net/ipv4.h"

namespace tapo::sim {

void Link::set_burst(double p_g2b, Duration duration, double bad_loss) {
  config_.p_good_to_bad = p_g2b;
  config_.burst_duration = duration;
  config_.bad_loss = bad_loss;
  if (p_g2b == 0.0) bad_until_ = TimePoint::epoch();
}

void Link::force_outage(Duration duration) {
  bad_until_ = sim_.now() + duration;
}

bool Link::decide_drop() {
  if (config_.random_loss > 0.0 && rng_.chance(config_.random_loss)) {
    ++stats_.dropped_random;
    return true;
  }
  if (config_.p_good_to_bad > 0.0 && sim_.now() >= bad_until_ &&
      rng_.chance(config_.p_good_to_bad)) {
    bad_until_ = sim_.now() + Duration::seconds(rng_.exponential(
                                 config_.burst_duration.sec()));
  }
  if (sim_.now() < bad_until_ && rng_.chance(config_.bad_loss)) {
    ++stats_.dropped_burst;
    return true;
  }
  return false;
}

std::size_t Link::wire_size(const net::CapturedPacket& pkt) const {
  return net::kIpv4HeaderLen + pkt.tcp.header_len() + pkt.payload_len;
}

void Link::send(net::CapturedPacket pkt) {
  ++stats_.sent;
  if (decide_drop()) return;

  const TimePoint now = sim_.now();
  TimePoint depart = now;
  if (config_.bandwidth_Bps > 0) {
    if (queued_ >= config_.queue_packets) {
      ++stats_.dropped_queue;
      return;
    }
    const Duration tx = Duration::micros(static_cast<std::int64_t>(
        static_cast<double>(wire_size(pkt)) * 1e6 /
        static_cast<double>(config_.bandwidth_Bps)));
    depart = std::max(now, busy_until_) + tx;
    busy_until_ = depart;
    ++queued_;
    sim_.schedule_at(depart, [this] { --queued_; });
  }

  Duration extra = Duration::zero();
  if (config_.jitter_mean > Duration::zero()) {
    extra += Duration::micros(static_cast<std::int64_t>(
        rng_.exponential(static_cast<double>(config_.jitter_mean.us()))));
  }
  if (config_.delay_burst_prob > 0.0) {
    if (now >= slow_until_ && rng_.chance(config_.delay_burst_prob)) {
      slow_until_ = now + Duration::seconds(rng_.exponential(
                              config_.delay_burst_duration.sec()));
    }
    if (now < slow_until_) extra += config_.delay_burst_extra;
  }
  // Bufferbloat coupling: a packet that survives a loss outage sits behind
  // the congested queue that caused it, so its delay spikes too. This is
  // what drives the sender's RTTVAR — and hence the RTO — up around loss
  // episodes (the paper's RTO is ~10x the RTT, Fig. 1b).
  if (now < bad_until_) {
    extra += (bad_until_ - now) + Duration::millis(50);
  }
  const bool reordered =
      config_.reorder_prob > 0.0 && rng_.chance(config_.reorder_prob);
  if (reordered) extra += config_.reorder_delay;

  TimePoint arrive = depart + config_.prop_delay + extra;
  // Delivery is FIFO, like a real queue: jitter and delay bursts stretch
  // arrivals but never let a packet overtake an earlier one. Only a
  // reordered packet is exempt.
  if (!reordered) {
    if (arrive < last_arrival_) arrive = last_arrival_;
    last_arrival_ = arrive;
  }
  std::uint32_t slot = 0;
  if (free_wire_.empty()) {
    slot = static_cast<std::uint32_t>(wire_.size());
    wire_.push_back(pkt);
  } else {
    slot = free_wire_.back();
    free_wire_.pop_back();
    wire_[slot] = pkt;
  }
  sim_.schedule_at(arrive, [this, slot] { deliver(slot); });
}

void Link::deliver(std::uint32_t slot) {
  // Copy the packet out and free its slot first: the handler may send on
  // this link, which can reuse the slot or grow the wire.
  net::CapturedPacket pkt = wire_[slot];
  free_wire_.push_back(slot);
  ++stats_.delivered;
  if (deliver_) {
    pkt.timestamp = sim_.now();
    deliver_(pkt);
  }
}

}  // namespace tapo::sim
