#include "sim/chaos.h"

#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.h"

namespace tapo::sim {

namespace {

void require(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}

void require_rate(double rate, Duration duration, const char* what) {
  if (rate < 0.0) {
    throw std::invalid_argument(std::string("ChaosConfig: ") + what +
                                " rate must be >= 0");
  }
  if (rate > 0.0 && duration <= Duration::zero()) {
    throw std::invalid_argument(std::string("ChaosConfig: ") + what +
                                " duration must be positive when enabled");
  }
}

}  // namespace

void ChaosConfig::validate() const {
  require_rate(reorder_storm_rate, reorder_storm_duration, "reorder storm");
  require_rate(ack_loss_rate, ack_loss_duration, "ACK loss");
  require_rate(ack_compress_rate, ack_compress_duration, "ACK compression");
  require_rate(rwnd_flap_rate, rwnd_flap_duration, "rwnd flap");
  require_rate(rtt_spike_rate, rtt_spike_duration, "RTT spike");
  require_rate(blackhole_rate, blackhole_duration, "blackhole");
  require(reorder_prob >= 0.0 && reorder_prob <= 1.0,
          "ChaosConfig: reorder_prob must be in [0, 1]");
  require(ack_loss_prob >= 0.0 && ack_loss_prob <= 1.0,
          "ChaosConfig: ack_loss_prob must be in [0, 1]");
  require(retrans_drop_prob >= 0.0 && retrans_drop_prob < 1.0,
          "ChaosConfig: retrans_drop_prob must be in [0, 1) — a probability "
          "of 1 would drop every retransmission forever and the flow could "
          "never complete");
  if (reorder_storm_rate > 0.0) {
    require(reorder_hold > Duration::zero(),
            "ChaosConfig: reorder_hold must be positive");
  }
  if (rtt_spike_rate > 0.0) {
    require(rtt_spike_extra > Duration::zero(),
            "ChaosConfig: rtt_spike_extra must be positive");
  }
}

const std::vector<ChaosScenario>& ChaosScenario::catalog() {
  static const std::vector<ChaosScenario> kCatalog = {
      {"reorder-storm",
       {.reorder_storm_rate = 0.8,
        .reorder_storm_duration = Duration::millis(400),
        .reorder_prob = 0.5,
        .reorder_hold = Duration::millis(40)}},
      {"ack-squeeze",
       {.ack_loss_rate = 0.6,
        .ack_loss_duration = Duration::millis(250),
        .ack_loss_prob = 0.9,
        .ack_compress_rate = 0.6,
        .ack_compress_duration = Duration::millis(150)}},
      {"rwnd-flap",
       {.rwnd_flap_rate = 0.5, .rwnd_flap_duration = Duration::millis(500)}},
      {"rtt-quake",
       {.rtt_spike_rate = 0.7,
        .rtt_spike_duration = Duration::millis(300),
        .rtt_spike_extra = Duration::millis(250)}},
      {"blackhole",
       {.blackhole_rate = 0.3, .blackhole_duration = Duration::millis(350)}},
      {"retrans-reaper", {.retrans_drop_prob = 0.5}},
      {"everything",
       {.reorder_storm_rate = 0.4,
        .reorder_storm_duration = Duration::millis(300),
        .reorder_prob = 0.4,
        .reorder_hold = Duration::millis(30),
        .ack_loss_rate = 0.3,
        .ack_loss_duration = Duration::millis(200),
        .ack_loss_prob = 0.8,
        .ack_compress_rate = 0.3,
        .ack_compress_duration = Duration::millis(120),
        .rwnd_flap_rate = 0.25,
        .rwnd_flap_duration = Duration::millis(400),
        .rtt_spike_rate = 0.3,
        .rtt_spike_duration = Duration::millis(250),
        .rtt_spike_extra = Duration::millis(200),
        .blackhole_rate = 0.15,
        .blackhole_duration = Duration::millis(300),
        .retrans_drop_prob = 0.3}},
  };
  return kCatalog;
}

const ChaosScenario* ChaosScenario::by_name(std::string_view name) {
  for (const auto& s : catalog()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ChaosInjector::ChaosInjector(Simulator& sim, Link& data_link, Link& ack_link,
                             ChaosConfig config)
    : sim_(sim),
      data_link_(data_link),
      ack_link_(ack_link),
      config_(std::move(config)),
      rng_(config_.seed) {
  config_.validate();
}

void ChaosInjector::count_injected(const char* kind) {
  ++injected_;
  if (!telemetry::metrics_enabled()) return;
  auto& c = telemetry::Registry::instance().counter(
      "tapo_chaos_injected_total", {{"kind", kind}});
  c.add(1);
}

double ChaosInjector::rate_for(Episode e) const {
  switch (e) {
    case kReorder: return config_.reorder_storm_rate;
    case kAckLoss: return config_.ack_loss_rate;
    case kAckCompress: return config_.ack_compress_rate;
    case kRwndFlap: return config_.rwnd_flap_rate;
    case kRttSpike: return config_.rtt_spike_rate;
    case kBlackhole: return config_.blackhole_rate;
    case kEpisodeKinds: break;
  }
  return 0.0;
}

Duration ChaosInjector::duration_for(Episode e) const {
  switch (e) {
    case kReorder: return config_.reorder_storm_duration;
    case kAckLoss: return config_.ack_loss_duration;
    case kAckCompress: return config_.ack_compress_duration;
    case kRwndFlap: return config_.rwnd_flap_duration;
    case kRttSpike: return config_.rtt_spike_duration;
    case kBlackhole: return config_.blackhole_duration;
    case kEpisodeKinds: break;
  }
  return Duration::zero();
}

void ChaosInjector::attach(std::function<bool()> active) {
  active_ = std::move(active);
  inner_data_ = data_link_.swap_deliver(
      [this](const net::CapturedPacket& pkt) { on_data_packet(pkt); });
  inner_ack_ = ack_link_.swap_deliver(
      [this](const net::CapturedPacket& pkt) { on_ack_packet(pkt); });
  for (int e = 0; e < kEpisodeKinds; ++e) {
    if (rate_for(static_cast<Episode>(e)) > 0.0) {
      schedule_next(static_cast<Episode>(e));
    }
  }
}

void ChaosInjector::schedule_next(Episode e) {
  const Duration gap =
      Duration::seconds(rng_.exponential(1.0 / rate_for(e)));
  sim_.schedule(gap, [this, e] {
    if (active_ && !active_()) return;  // flow done: let the chain die out
    begin(e);
  });
}

void ChaosInjector::begin(Episode e) {
  episode_on_[e] = true;
  sim_.schedule(duration_for(e), [this, e] { end(e); });
}

void ChaosInjector::end(Episode e) {
  episode_on_[e] = false;
  if (e == kAckCompress && !held_acks_.empty()) {
    // Release the compressed burst in arrival (FIFO) order. This happens
    // even when the flow finished mid-episode — held packets are never
    // silently swallowed.
    std::vector<net::CapturedPacket> burst;
    burst.swap(held_acks_);
    for (auto& pkt : burst) {
      pkt.timestamp = sim_.now();
      if (inner_ack_) inner_ack_(pkt);
    }
  }
  if (!active_ || active_()) schedule_next(e);
}

void ChaosInjector::deliver_later(bool data_path, net::CapturedPacket pkt,
                                  Duration extra) {
  sim_.schedule(extra, [this, data_path, pkt]() mutable {
    pkt.timestamp = sim_.now();
    const Link::DeliverFn& inner = data_path ? inner_data_ : inner_ack_;
    if (inner) inner(pkt);
  });
}

void ChaosInjector::on_data_packet(const net::CapturedPacket& pkt) {
  if (episode_on_[kBlackhole]) {
    count_injected("blackhole");
    return;
  }
  if (config_.retrans_drop_prob > 0.0 && pkt.payload_len > 0) {
    const net::Seq32 end = pkt.end_seq();
    const bool retrans = seen_data_ && net::before(pkt.tcp.seq, high_end_);
    if (!seen_data_ || net::after(end, high_end_)) {
      high_end_ = end;
      seen_data_ = true;
    }
    if (retrans && rng_.chance(config_.retrans_drop_prob)) {
      count_injected("retrans_drop");
      return;
    }
  }
  if (episode_on_[kRttSpike]) {
    count_injected("rtt_spike");
    deliver_later(/*data_path=*/true, pkt, config_.rtt_spike_extra);
    return;
  }
  if (episode_on_[kReorder] && pkt.payload_len > 0 &&
      rng_.chance(config_.reorder_prob)) {
    count_injected("reorder");
    deliver_later(/*data_path=*/true, pkt, config_.reorder_hold);
    return;
  }
  if (inner_data_) inner_data_(pkt);
}

void ChaosInjector::on_ack_packet(const net::CapturedPacket& pkt) {
  if (episode_on_[kBlackhole]) {
    count_injected("blackhole");
    return;
  }
  const bool pure_ack =
      pkt.tcp.flags.ack && !pkt.tcp.flags.syn && pkt.payload_len == 0;
  if (episode_on_[kAckLoss] && pure_ack &&
      rng_.chance(config_.ack_loss_prob)) {
    count_injected("ack_loss");
    return;
  }
  net::CapturedPacket out = pkt;
  if (episode_on_[kRwndFlap] && pkt.tcp.flags.ack && !pkt.tcp.flags.syn) {
    out.tcp.window = 0;
    count_injected("rwnd_flap");
  }
  if (episode_on_[kAckCompress] && pure_ack) {
    count_injected("ack_compress");
    held_acks_.push_back(out);
    return;
  }
  if (episode_on_[kRttSpike]) {
    count_injected("rtt_spike");
    deliver_later(/*data_path=*/false, out, config_.rtt_spike_extra);
    return;
  }
  if (inner_ack_) inner_ack_(out);
}

}  // namespace tapo::sim
