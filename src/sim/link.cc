#include "sim/link.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "net/ipv4.h"

namespace tapo::sim {

void LinkConfig::validate() const {
  const auto require = [](double p, bool one_ok, const char* name) {
    if (!(p >= 0.0 && (p < 1.0 || (one_ok && p == 1.0)))) {
      throw std::invalid_argument(std::string("LinkConfig: ") + name +
                                  (one_ok ? " must be in [0, 1], got "
                                          : " must be in [0, 1), got ") +
                                  std::to_string(p));
    }
  };
  require(random_loss, false, "random_loss");
  require(reorder_prob, true, "reorder_prob");
  require(delay_burst_prob, true, "delay_burst_prob");
  require(p_good_to_bad, true, "p_good_to_bad");
  require(bad_loss, true, "bad_loss");
}

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

Link::~Link() {
  if (wire_.empty()) return;
  sim_.pending_ -= wire_.size();
  sim_.drop(this);
}

void Link::settle_departures() {
  while (!departures_.empty() && sim_.past(departures_.front())) {
    departures_.pop_front();
    --queued_;
  }
#ifndef NDEBUG
  assert(departures_.size() == queued_);
  for (std::size_t i = 1; i < departures_.size(); ++i) {
    assert(departures_[i - 1] < departures_[i]);
  }
#endif
}

void Link::send(net::CapturedPacket pkt) {
  ++stats_.sent;
  if (decide_drop()) return;

  const TimePoint now = sim_.now();
  TimePoint depart = now;
  if (config_.bandwidth_Bps > 0) {
    settle_departures();
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
    departures_.push_back(sim_.take_key(depart));
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
  if (reordered) {
    std::uint32_t slot = 0;
    if (free_held_.empty()) {
      slot = static_cast<std::uint32_t>(held_.size());
      held_.push_back(pkt);
    } else {
      slot = free_held_.back();
      free_held_.pop_back();
      held_[slot] = pkt;
    }
    sim_.schedule_at(arrive, [this, slot] {
      // Copy the packet out and free its slot first: the handler may send
      // on this link, which can reuse the slot or grow the vector.
      net::CapturedPacket held = held_[slot];
      free_held_.push_back(slot);
      deliver(held);
    });
    return;
  }
  // Delivery is FIFO, like a real queue: jitter and delay bursts stretch
  // arrivals but never let a packet overtake an earlier one. So the ring
  // stays sorted by key, and its head, the only entry in the heap, is the
  // link's next delivery.
  if (arrive < last_arrival_) arrive = last_arrival_;
  last_arrival_ = arrive;
  const Simulator::Key key = sim_.take_key(arrive);
  if (wire_.empty()) {
    sim_.push({.key = key, .owner = this, .kind = Simulator::Kind::kLink});
  }
  wire_.push_back(InFlight{key, pkt});
  ++sim_.pending_;
}

void Link::deliver_head() {
  // Copy the packet out first: the handler may send on this link and grow
  // the ring.
  net::CapturedPacket pkt = wire_.front().pkt;
  wire_.pop_front();
  --sim_.pending_;
  if (!wire_.empty()) {
    sim_.push({.key = wire_.front().key,
               .owner = this,
               .kind = Simulator::Kind::kLink});
  }
  deliver(pkt);
}

void Link::deliver(net::CapturedPacket& pkt) {
  ++stats_.delivered;
  if (deliver_) {
    pkt.timestamp = sim_.now();
    deliver_(pkt);
  }
}

}  // namespace tapo::sim
