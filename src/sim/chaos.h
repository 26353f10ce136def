// Protocol chaos engine: a seeded hostile-network scenario generator
// layered on sim::Link. Where LinkConfig models a *plausible* path (loss,
// jitter, bursts), ChaosConfig models an *adversarial* one — the dynamics
// that historically break TCP implementations rather than merely slow them:
//
//   - reorder storms      data packets overtake each other en masse
//   - ACK-loss bursts     the return path eats pure ACKs
//   - ACK compression     ACKs bunch up and arrive in one burst
//   - rwnd flapping       the advertised window is rewritten to zero
//   - RTT spikes          step-changes in path delay (both directions)
//   - blackholes          transient bidirectional outages
//   - retrans-targeted    drops aimed specifically at retransmissions
//
// The injector wraps both links' delivery handlers *after* the connection
// has registered its own (Link::swap_deliver), so the TCP endpoints are
// untouched and unaware. Determinism contract, mirroring CaptureImpairments:
// every decision comes from one Rng seeded from `seed` and advanced only by
// packets and episode timers inside the flow's own simulator, so a per-flow
// derived seed (scenario_seed ^ flow_seed) makes parallel runs bit-identical
// to serial. Default-off config = bit-identical passthrough (the injector
// is not even constructed).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/trace.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tapo::sim {

struct ChaosConfig {
  std::uint64_t seed = 1;

  /// Reorder storms (data direction): episodes arrive ~Poisson(rate) per
  /// second; during one, each data packet is independently held an extra
  /// `reorder_hold` with probability `reorder_prob`, bypassing FIFO so
  /// later packets overtake it.
  double reorder_storm_rate = 0.0;  // episodes per second; 0 = off
  Duration reorder_storm_duration = Duration::millis(400);
  double reorder_prob = 0.5;
  Duration reorder_hold = Duration::millis(40);

  /// ACK-loss bursts (ack direction): pure ACKs drop with `ack_loss_prob`
  /// for the episode duration.
  double ack_loss_rate = 0.0;
  Duration ack_loss_duration = Duration::millis(250);
  double ack_loss_prob = 0.9;

  /// ACK compression: pure ACKs are held for the episode and released
  /// back-to-back (FIFO) when it ends.
  double ack_compress_rate = 0.0;
  Duration ack_compress_duration = Duration::millis(150);

  /// rwnd flapping: every non-SYN ACK's advertised window is rewritten to
  /// zero for the episode — a hostile receiver/middlebox oscillating the
  /// window. Recovery relies on the sender's persist probes soliciting a
  /// fresh (honest) ACK after the episode.
  double rwnd_flap_rate = 0.0;
  Duration rwnd_flap_duration = Duration::millis(500);

  /// RTT spikes: every packet (both directions) is held an extra
  /// `rtt_spike_extra` for the episode — a routing-event step change. The
  /// same extra applies to all packets in the episode, so order holds.
  double rtt_spike_rate = 0.0;
  Duration rtt_spike_duration = Duration::millis(300);
  Duration rtt_spike_extra = Duration::millis(250);

  /// Transient blackholes: both directions drop everything for the episode.
  double blackhole_rate = 0.0;
  Duration blackhole_duration = Duration::millis(350);

  /// Retransmission-targeted drops (always-on, not episodic): a data packet
  /// whose range was already seen drops with this probability. Capped below
  /// 1 by validate() so a retransmission eventually survives.
  double retrans_drop_prob = 0.0;

  /// True when any impairment is configured; false = the injector is never
  /// constructed and the flow is bit-identical to a chaos-free run.
  bool enabled() const {
    return reorder_storm_rate > 0.0 || ack_loss_rate > 0.0 ||
           ack_compress_rate > 0.0 || rwnd_flap_rate > 0.0 ||
           rtt_spike_rate > 0.0 || blackhole_rate > 0.0 ||
           retrans_drop_prob > 0.0;
  }

  /// Throws std::invalid_argument on nonsensical values (negative rates,
  /// probabilities outside [0,1], retrans_drop_prob >= 1, a non-positive
  /// duration, hold or extra for an enabled episode kind). Called by
  /// ExperimentConfig::validate, run_flow and the ChaosInjector
  /// constructor; the only place these fields are checked.
  void validate() const;
};

/// A named chaos configuration. The catalog gives the storm harness and the
/// failure-replay flags (--scenario=<name>) a stable, human-readable set of
/// hostile regimes; per-run variation comes from reseeding `config.seed`.
struct ChaosScenario {
  std::string name;
  ChaosConfig config;

  /// The built-in hostile regimes, one per mechanism plus one combined.
  static const std::vector<ChaosScenario>& catalog();
  /// Catalog lookup; nullptr when `name` is unknown.
  static const ChaosScenario* by_name(std::string_view name);
};

/// Wraps a flow's two links with the configured impairments. Construct
/// after the connection has registered its delivery handlers, then call
/// attach(). The injector must outlive the simulation run.
class ChaosInjector {
 public:
  /// `data_link` carries server->client data, `ack_link` client->server.
  ChaosInjector(Simulator& sim, Link& data_link, Link& ack_link,
                ChaosConfig config);

  /// Installs the wrappers and schedules the first episode of each enabled
  /// kind. `active` gates episode rescheduling: once it returns false (the
  /// flow is done), episode chains stop so they cannot keep the event queue
  /// alive forever.
  void attach(std::function<bool()> active);

  /// Packets the injector dropped, held, delayed or rewrote, all kinds
  /// together. With metrics on, tapo_chaos_injected_total{kind} counts the
  /// same packets per kind.
  std::uint64_t injected() const { return injected_; }

 private:
  enum Episode {
    kReorder,
    kAckLoss,
    kAckCompress,
    kRwndFlap,
    kRttSpike,
    kBlackhole,
    kEpisodeKinds,
  };

  double rate_for(Episode e) const;
  Duration duration_for(Episode e) const;
  void schedule_next(Episode e);
  void begin(Episode e);
  void end(Episode e);
  void on_data_packet(const net::CapturedPacket& pkt);
  void on_ack_packet(const net::CapturedPacket& pkt);
  void deliver_later(bool data_path, net::CapturedPacket pkt, Duration extra);
  /// Counts one injected packet in injected_ and, with metrics on, in
  /// tapo_chaos_injected_total{kind}.
  void count_injected(const char* kind);

  Simulator& sim_;
  Link& data_link_;
  Link& ack_link_;
  ChaosConfig config_;
  Rng rng_;
  std::function<bool()> active_;
  Link::DeliverFn inner_data_;
  Link::DeliverFn inner_ack_;
  bool episode_on_[kEpisodeKinds] = {};
  std::vector<net::CapturedPacket> held_acks_;
  net::Seq32 high_end_;     // highest data end-seq seen (retrans detection)
  bool seen_data_ = false;
  std::uint64_t injected_ = 0;
};

}  // namespace tapo::sim
