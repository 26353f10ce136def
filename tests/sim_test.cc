// Tests for the discrete-event simulator and link models.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tapo::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().us(), 30'000);
}

TEST(Simulator, FifoAmongEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  Timer t(sim, [&] { fired = true; });
  t.arm(Duration::millis(1));
  t.cancel();
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule(Duration::millis(1), tick);
  };
  sim.schedule(Duration::millis(1), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().us(), 5'000);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> seen;
  sim.schedule(Duration::millis(10), [&] { seen.push_back(1); });
  sim.schedule(Duration::millis(30), [&] { seen.push_back(2); });
  sim.run_until(TimePoint::from_us(20'000));
  EXPECT_EQ(seen, std::vector<int>{1});
  EXPECT_EQ(sim.now().us(), 20'000);
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  bool fired = false;
  sim.schedule(Duration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().us(), 0);
}

TEST(Timer, ArmAndFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(Duration::millis(10));
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPending) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(Duration::millis(10));
  t.arm(Duration::millis(50));
  sim.run_until(TimePoint::from_us(20'000));
  EXPECT_EQ(fires, 0);
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now().us(), 50'000);
}

TEST(Timer, CancelStopsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(Duration::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmInsideCallback) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fires < 3) tp->arm(Duration::millis(10));
  });
  tp = &t;
  t.arm(Duration::millis(10));
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now().us(), 30'000);
}

// A re-arm takes its place in the order of equal-time events at the moment
// it is made, like a newly scheduled event: events scheduled before it at
// the new deadline fire first, events scheduled after it fire later.
std::vector<char> rearm_order(Duration first, Duration second) {
  Simulator sim;
  std::vector<char> order;
  Timer t(sim, [&] { order.push_back('T'); });
  t.arm(first);
  sim.schedule(second, [&] { order.push_back('a'); });
  t.arm(second);
  sim.schedule(second, [&] { order.push_back('b'); });
  EXPECT_EQ(sim.next_event_time(), TimePoint::epoch() + second);
  EXPECT_EQ(sim.run(), 3u);  // the timer's earlier arm neither fires nor counts
  EXPECT_EQ(sim.now(), TimePoint::epoch() + second);
  EXPECT_FALSE(t.armed());
  EXPECT_TRUE(sim.empty());
  return order;
}

TEST(Timer, RearmLaterFiresOnceInKeyOrder) {
  EXPECT_EQ(rearm_order(Duration::millis(10), Duration::millis(20)),
            (std::vector<char>{'a', 'T', 'b'}));
}

TEST(Timer, RearmEarlierFiresOnceInKeyOrder) {
  EXPECT_EQ(rearm_order(Duration::millis(30), Duration::millis(10)),
            (std::vector<char>{'a', 'T', 'b'}));
}

TEST(Timer, RearmSameInstantFiresOnceInKeyOrder) {
  EXPECT_EQ(rearm_order(Duration::millis(10), Duration::millis(10)),
            (std::vector<char>{'a', 'T', 'b'}));
}

TEST(Timer, RearmBackAndForthFiresOnceAtTheLastDeadline) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  Timer t(sim, [&] { fired_at.push_back(sim.now().us()); });
  t.arm(Duration::millis(30));
  t.arm(Duration::millis(10));
  t.arm(Duration::millis(40));
  t.arm(Duration::millis(20));
  t.cancel();
  t.arm(Duration::millis(25));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_until(TimePoint::from_us(24'000)), 0u);
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired_at, std::vector<std::int64_t>{25'000});
  EXPECT_EQ(sim.now().us(), 25'000);
}

TEST(Timer, DestroyedWhileQueuedLeavesNothingDangling) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.arm(Duration::millis(30));
    t.arm(Duration::millis(10));  // two entries queued for one timer
    t.arm(Duration::millis(20));
  }
  EXPECT_TRUE(sim.empty());
  int later = 0;
  sim.schedule(Duration::millis(50), [&] { ++later; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(sim.now().us(), 50'000);
}

net::CapturedPacket test_packet(std::uint32_t seq, std::uint32_t payload) {
  net::CapturedPacket p;
  p.key = {1, 2, 3, 4};
  p.tcp.seq = net::Seq32{seq};
  p.payload_len = payload;
  return p;
}

TEST(Link, DeliversAfterPropDelay) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(25);
  Link link(sim, cfg, Rng(1));
  std::vector<std::int64_t> arrivals;
  link.set_deliver([&](const net::CapturedPacket& p) {
    arrivals.push_back(p.timestamp.us());
  });
  link.send(test_packet(1, 100));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 25'000);
  EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(Link, FifoPreservedUnderJitter) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  cfg.jitter_mean = Duration::millis(20);  // heavy jitter
  Link link(sim, cfg, Rng(7));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  for (std::uint32_t i = 0; i < 100; ++i) link.send(test_packet(i, 100));
  sim.run();
  ASSERT_EQ(seqs.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(Link, ReorderEventsOvertake) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  cfg.reorder_prob = 0.3;
  cfg.reorder_delay = Duration::millis(50);
  Link link(sim, cfg, Rng(21));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  for (std::uint32_t i = 0; i < 200; ++i) link.send(test_packet(i, 100));
  sim.run();
  ASSERT_EQ(seqs.size(), 200u);
  bool out_of_order = false;
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] < seqs[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Link, RandomLossRate) {
  Simulator sim;
  LinkConfig cfg;
  cfg.random_loss = 0.1;
  Link link(sim, cfg, Rng(3));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(test_packet(1, 1));
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.9, 0.01);
  EXPECT_EQ(link.stats().dropped_random + link.stats().delivered,
            static_cast<std::uint64_t>(n));
}

TEST(Link, ConstructorValidatesProbabilities) {
  Simulator sim;
  const auto rejects = [&](LinkConfig cfg, const std::string& field) {
    try {
      Link link(sim, cfg, Rng(1));
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  LinkConfig all_loss;
  all_loss.random_loss = 1.0;  // no packet, hence no retransmission, survives
  rejects(all_loss, "random_loss");
  LinkConfig negative;
  negative.reorder_prob = -0.1;
  rejects(negative, "reorder_prob");
  LinkConfig over;
  over.delay_burst_prob = 1.5;
  rejects(over, "delay_burst_prob");
  LinkConfig nan;
  nan.p_good_to_bad = std::nan("");
  rejects(nan, "p_good_to_bad");
  LinkConfig bad;
  bad.bad_loss = 2.0;
  rejects(bad, "bad_loss");

  // The top of each range is accepted: 1 where the range is closed.
  LinkConfig edges;
  edges.random_loss = 0.999;
  edges.reorder_prob = 1.0;
  edges.delay_burst_prob = 1.0;
  edges.p_good_to_bad = 1.0;
  edges.bad_loss = 1.0;
  EXPECT_NO_THROW(edges.validate());
}

TEST(Link, BandwidthSerialization) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(0);
  cfg.bandwidth_Bps = 100'000;  // 100 KB/s
  cfg.queue_packets = 100;
  Link link(sim, cfg, Rng(5));
  std::vector<std::int64_t> arrivals;
  link.set_deliver([&](const net::CapturedPacket& p) {
    arrivals.push_back(p.timestamp.us());
  });
  // Two 1000-byte payload packets: wire size 1040 each -> 10.4 ms each.
  link.send(test_packet(1, 1000));
  link.send(test_packet(2, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 10'400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(arrivals[1]), 20'800.0, 200.0);
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_Bps = 10'000;
  cfg.queue_packets = 5;
  Link link(sim, cfg, Rng(5));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  for (int i = 0; i < 20; ++i) link.send(test_packet(1, 1000));
  sim.run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(link.stats().dropped_queue, 15u);
}

TEST(Link, ForcedOutageDropsWindow) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  cfg.bad_loss = 1.0;
  Link link(sim, cfg, Rng(9));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  link.force_outage(Duration::millis(100));
  for (int i = 0; i < 10; ++i) link.send(test_packet(1, 1));
  // After the outage, packets flow again.
  sim.schedule(Duration::millis(200), [&] {
    for (int i = 0; i < 10; ++i) link.send(test_packet(1, 1));
  });
  sim.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(link.stats().dropped_burst, 10u);
}

TEST(Link, BurstOutageIsTimeBased) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  cfg.p_good_to_bad = 1.0;  // first packet triggers an outage
  cfg.burst_duration = Duration::millis(50);
  cfg.bad_loss = 1.0;
  Link link(sim, cfg, Rng(11));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  link.send(test_packet(1, 1));  // triggers outage; may itself drop
  // A retransmission long after the outage must survive the bad state
  // (time-based, not per-packet-chain). p_good_to_bad=1 means it will
  // trigger a new outage, but the packet itself is evaluated against the
  // *previous* state expiry... so send after a long quiet period and only
  // count that burst triggers do not last forever.
  int late_delivered = 0;
  sim.schedule(Duration::seconds(10.0), [&] {
    link.set_burst(0.0, Duration::millis(50), 1.0);
    link.send(test_packet(2, 1));
  });
  sim.run();
  (void)delivered;
  late_delivered = static_cast<int>(link.stats().delivered);
  EXPECT_GE(late_delivered, 1);
}

TEST(Link, DeterministicGivenSeed) {
  auto run_once = [] {
    Simulator sim;
    LinkConfig cfg;
    cfg.random_loss = 0.3;
    cfg.jitter_mean = Duration::millis(5);
    Link link(sim, cfg, Rng(42));
    std::vector<std::int64_t> arrivals;
    link.set_deliver([&](const net::CapturedPacket& p) {
      arrivals.push_back(p.timestamp.us());
    });
    for (int i = 0; i < 100; ++i) link.send(test_packet(1, 100));
    sim.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Link, HandlerSendingOnSameLinkGrowsTheWire) {
  // Each of the first packets, on delivery, sends eight more on the same
  // link. The wire slots grow while a delivered packet is being handled;
  // that packet and every later one must arrive intact and in order.
  Simulator sim;
  Link link(sim, LinkConfig{}, Rng(1));
  std::vector<std::uint32_t> seqs;
  bool intact = true;
  link.set_deliver([&](const net::CapturedPacket& p) {
    const std::uint32_t seq = p.tcp.seq.raw();
    seqs.push_back(seq);
    intact = intact && p.payload_len == seq + 1000;
    if (seq < 10) {
      for (std::uint32_t k = 1; k <= 8; ++k) {
        link.send(test_packet(seq * 100 + k, seq * 100 + k + 1000));
      }
    }
    intact = intact && p.tcp.seq.raw() == seq && p.payload_len == seq + 1000;
  });
  for (std::uint32_t seq = 1; seq <= 3; ++seq) link.send(test_packet(seq, seq + 1000));
  sim.run();
  std::vector<std::uint32_t> want = {1, 2, 3};
  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    for (std::uint32_t k = 1; k <= 8; ++k) want.push_back(seq * 100 + k);
  }
  EXPECT_EQ(seqs, want);
  EXPECT_TRUE(intact);
  EXPECT_EQ(link.stats().delivered, 27u);
}


TEST(Link, DepartureAtSendInstantFollowsSchedulingOrder) {
  // A bottleneck packet leaves the queue at its departure instant, in
  // scheduling order among the events at that instant: a send from an
  // event scheduled before the packet still finds the queue full, a send
  // from one scheduled after it finds room.
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(0);
  cfg.bandwidth_Bps = 100'000;  // 1040 wire bytes -> 10.4 ms
  cfg.queue_packets = 1;
  Link link(sim, cfg, Rng(5));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  const TimePoint departs = TimePoint::from_us(10'400);
  sim.schedule_at(departs, [&] { link.send(test_packet(2, 1000)); });  // B
  link.send(test_packet(1, 1000));                                      // A
  sim.schedule_at(departs, [&] { link.send(test_packet(3, 1000)); });  // C
  sim.run();
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(link.stats().dropped_queue, 1u);
  EXPECT_EQ(link.stats().delivered, 2u);
}

TEST(Link, DestroyedWhileQueuedLeavesNothingDangling) {
  // run_flow destroys its links before the simulator, with packets still
  // queued on them.
  Simulator sim;
  {
    LinkConfig cfg;
    cfg.bandwidth_Bps = 100'000;
    Link link(sim, cfg, Rng(1));
    link.set_deliver([](const net::CapturedPacket&) { ADD_FAILURE(); });
    for (std::uint32_t i = 0; i < 4; ++i) link.send(test_packet(i, 1000));
    EXPECT_FALSE(sim.empty());
  }
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] { ++fired; });
  // Stops short of the destroyed link's first departure (10.4 ms).
  EXPECT_EQ(sim.run_until(TimePoint::from_us(5'000)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Link, DestroyedWhileReorderedLeavesNothingDangling) {
  // A reordered packet's delivery names its link; destroying the link takes
  // that delivery with it, so the simulator can run on.
  Simulator sim;
  {
    LinkConfig cfg;
    cfg.reorder_prob = 1.0;
    Link link(sim, cfg, Rng(1));
    link.set_deliver([](const net::CapturedPacket&) { ADD_FAILURE(); });
    link.send(test_packet(1, 1000));
    EXPECT_EQ(sim.pending(), 1u);
  }
  ASSERT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}


// --- cancellation: a cancelled timer stops counting as pending at once,
// and whatever it leaves queued never fires or counts ---

TEST(Simulator, PendingAndEmptyTrackCancellationImmediately) {
  Simulator sim;
  Timer a(sim, [] {});
  Timer b(sim, [] {});
  a.arm(Duration::millis(1));
  b.arm(Duration::millis(2));
  sim.schedule(Duration::millis(3), [] {});
  EXPECT_EQ(sim.pending(), 3u);
  a.cancel();
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_FALSE(sim.empty());
  b.cancel();
  b.cancel();  // double-cancel is a no-op
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] { ++fired; });
  Timer late(sim, [&] { ++fired; });
  late.arm(Duration::millis(10));
  EXPECT_EQ(sim.run_until(TimePoint::epoch() + Duration::millis(5)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.empty());
  late.cancel();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  Timer head(sim, [&] { fired = true; });
  head.arm(Duration::millis(1));
  sim.schedule(Duration::millis(8), [&] { fired = true; });
  head.cancel();
  // The cancelled timer's entry at the head must not hide that the next
  // *live* event is beyond the deadline.
  EXPECT_EQ(sim.run_until(TimePoint::epoch() + Duration::millis(5)), 0u);
  EXPECT_EQ(sim.now().us(), 5'000);
  EXPECT_EQ(sim.next_event_time(), TimePoint::from_us(8'000));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelFromWithinHandler) {
  Simulator sim;
  bool second_fired = false;
  Timer second(sim, [&] { second_fired = true; });
  second.arm(Duration::millis(2));
  sim.schedule(Duration::millis(1), [&] { second.cancel(); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(sim.empty());
}

}  // namespace
}  // namespace tapo::sim
