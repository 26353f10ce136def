// Unidirectional link model: drop-tail queue + serialization at a
// configurable bandwidth, propagation delay with jitter, and two loss
// processes (i.i.d. random loss and Gilbert-Elliott bursts — the latter
// drives the paper's continuous-loss and double-retransmission stalls,
// which need correlated drops).
//
// Events: delivery is FIFO except for reordered packets, so a link keeps
// its in-order packets in a ring sorted by (arrival, sequence number) and
// only the ring's head in the simulator's heap; each packet keeps the key
// a scheduled delivery would have had. A reordered packet is delivered by
// an ordinary closure event. The bottleneck queue keeps the key of each
// packet's departure in a second ring, and the next send retires every
// departure whose key orders before the event now running, which is when
// a departure event would have fired. Neither ring allocates once grown.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/trace.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tapo::sim {

struct LinkConfig {
  /// One-way propagation delay.
  Duration prop_delay = Duration::millis(50);
  /// Extra per-packet delay drawn ~ Exp(jitter_mean); 0 disables. Jitter
  /// stretches delivery without reordering, like a real queue: packets
  /// never overtake each other.
  Duration jitter_mean = Duration::micros(0);
  /// With this probability a packet is held an extra `reorder_delay` and
  /// exempted from FIFO, letting later packets overtake it.
  double reorder_prob = 0.0;
  Duration reorder_delay = Duration::millis(5);
  /// Bottleneck bandwidth in bytes/second; 0 = infinite.
  std::uint64_t bandwidth_Bps = 0;
  /// Drop-tail queue capacity in packets (only meaningful with bandwidth).
  std::size_t queue_packets = 64;

  /// i.i.d. loss probability applied to every packet.
  double random_loss = 0.0;

  /// Correlated delay bursts (transient congestion / routing events): each
  /// packet triggers an episode with probability delay_burst_prob; for
  /// ~Exp(delay_burst_duration) of wall-clock time every packet is held an
  /// extra delay_burst_extra. Unlike per-packet jitter this moves whole
  /// windows late, producing the paper's "RTT variation" stalls without
  /// inflating the steady-state SRTT.
  double delay_burst_prob = 0.0;
  Duration delay_burst_duration = Duration::millis(250);
  Duration delay_burst_extra = Duration::millis(200);

  /// Time-based burst loss (outage windows — congested middlebox buffers).
  /// Each packet triggers an outage with probability p_good_to_bad; the
  /// outage lasts ~ Exp(burst_duration) of wall-clock time, during which
  /// packets drop with `bad_loss`. Time-based (not per-packet Gilbert-
  /// Elliott) so that a retransmission seconds later sees a recovered path.
  double p_good_to_bad = 0.0;
  Duration burst_duration = Duration::millis(150);
  double bad_loss = 0.9;

  /// Throws std::invalid_argument naming the field when a probability is
  /// out of range: random_loss must be in [0, 1) (a link that drops every
  /// packet can never deliver a retransmission), the others in [0, 1].
  void validate() const;
};

struct LinkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t dropped_burst = 0;
  std::uint64_t dropped_queue = 0;
};

class Link {
 public:
  using DeliverFn = std::function<void(const net::CapturedPacket&)>;

  /// Validates `config` (LinkConfig::validate) before anything is sent.
  Link(Simulator& sim, LinkConfig config, Rng rng)
      : sim_(sim), config_(config), rng_(rng) {
    config_.validate();
  }
  /// Drops the packets still on the ring. The simulator must outlive the
  /// link, and must not run on after it while a reordered packet's
  /// closure, which names the link, is still queued.
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Replaces the delivery handler and returns the previous one, so an
  /// interceptor installed after construction (chaos injection, delivery
  /// tracking) can wrap whatever the connection already registered.
  DeliverFn swap_deliver(DeliverFn fn) {
    DeliverFn old = std::move(deliver_);
    deliver_ = std::move(fn);
    return old;
  }

  /// Injects a packet at the link head. Drops are silent (counted in stats).
  void send(net::CapturedPacket pkt);

  const LinkStats& stats() const { return stats_; }
  const LinkConfig& config() const { return config_; }

  /// Runtime re-configuration (used by scripted scenarios, e.g. Fig. 2's
  /// mid-flow loss episode).
  void set_burst(double p_g2b, Duration duration, double bad_loss);
  void set_jitter_mean(Duration d) { config_.jitter_mean = d; }
  /// Forces an outage starting now for `duration` (scripted scenarios).
  void force_outage(Duration duration);

 private:
  friend class Simulator;

  /// A FIFO queue in a circular buffer that doubles when full and never
  /// shrinks, so it allocates nothing once it has grown to its peak.
  template <class T>
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const T& operator[](std::size_t i) const {
      return buf_[(head_ + i) & (buf_.size() - 1)];
    }
    const T& front() const { return buf_[head_]; }
    void push_back(const T& v) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = v;
      ++size_;
    }
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }

   private:
    void grow() {
      std::vector<T> bigger(std::max<std::size_t>(4, 2 * buf_.size()));
      for (std::size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
      buf_.swap(bigger);
      head_ = 0;
    }
    std::vector<T> buf_;  // capacity a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  struct InFlight {
    Simulator::Key key;
    net::CapturedPacket pkt;
  };

  bool decide_drop();
  std::size_t wire_size(const net::CapturedPacket& pkt) const;
  /// Retires the bottleneck departures that have happened by now.
  void settle_departures();
  /// Pops the ring's head and delivers it (the simulator's kLink event).
  void deliver_head();
  void deliver(net::CapturedPacket& pkt);

  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  DeliverFn deliver_;
  LinkStats stats_;

  TimePoint bad_until_ = TimePoint::epoch();
  TimePoint slow_until_ = TimePoint::epoch();
  TimePoint busy_until_ = TimePoint::epoch();
  TimePoint last_arrival_ = TimePoint::epoch();
  std::size_t queued_ = 0;
  Ring<Simulator::Key> departures_;  // the queued_ packets' departures
  Ring<InFlight> wire_;              // in-order packets, by key
  // Reordered packets, each in a slot until its delivery closure fires.
  // That closure holds only `this` and the slot index, so it fits
  // std::function's inline buffer and scheduling it allocates nothing.
  std::vector<net::CapturedPacket> held_;
  std::vector<std::uint32_t> free_held_;
};

}  // namespace tapo::sim
