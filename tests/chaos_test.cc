// Chaos-engine gate tests (ctest -L chaos):
//   - catalog integrity (names resolve, configs validate)
//   - byte-stream delivery integrity, chaos off and under the full storm
//   - zero-window deadlock regression: rwnd flapping parks the flow in
//     persist mode, which must either recover or classify kRwndLimited —
//     never wedge silently
//   - determinism: chaos runs are bit-identical parallel vs serial, and the
//     chaos-off guard path is bit-identical to the unguarded one
//   - the simulator watchdog trips on an exhausted event budget
//   - the invariant monitor stays clean across every hostile regime
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/chaos.h"
#include "tcp/invariants.h"
#include "workload/experiment.h"
#include "workload/profiles.h"
#include "workload/runner.h"

namespace {

using namespace tapo;
using namespace tapo::workload;

constexpr std::uint64_t kSeed = 0xc4a05u;

/// Monitor-on for the duration of a test, with clean counters either side.
struct MonitorScope {
  MonitorScope() {
    tcp::InvariantMonitor::reset();
    tcp::InvariantMonitor::set_enabled(true);
  }
  ~MonitorScope() {
    tcp::InvariantMonitor::set_enabled(false);
    tcp::InvariantMonitor::reset();
  }
};

const sim::ChaosConfig& scenario_config(const char* name) {
  const sim::ChaosScenario* sc = sim::ChaosScenario::by_name(name);
  EXPECT_NE(sc, nullptr) << name;
  return sc->config;
}

ExperimentConfig chaos_config(const ServiceProfile& profile,
                              const sim::ChaosConfig& chaos,
                              std::size_t flows) {
  return {.profile = profile,
          .flows = flows,
          .seed = kSeed,
          .max_flow_time = Duration::seconds(120.0),
          .analyze = false,
          .chaos = chaos,
          .verify_delivery = true};
}

TEST(ChaosCatalog, NamesResolveAndConfigsValidate) {
  const auto& catalog = sim::ChaosScenario::catalog();
  ASSERT_GE(catalog.size(), 7u);
  for (const auto& sc : catalog) {
    SCOPED_TRACE(sc.name);
    EXPECT_TRUE(sc.config.enabled());
    EXPECT_NO_THROW(sc.config.validate());
    const sim::ChaosScenario* found = sim::ChaosScenario::by_name(sc.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, sc.name);
  }
  EXPECT_EQ(sim::ChaosScenario::by_name("no-such-scenario"), nullptr);
}

TEST(ChaosConfigValidation, RejectsNonsense) {
  const std::vector<std::pair<const char*, sim::ChaosConfig>> bad = {
      {"reorder_storm_rate -1", {.reorder_storm_rate = -1.0}},
      {"reorder_storm_duration 0",
       {.reorder_storm_rate = 0.8, .reorder_storm_duration = Duration::zero()}},
      {"reorder_prob -0.1", {.reorder_prob = -0.1}},
      {"reorder_prob 1.5", {.reorder_prob = 1.5}},
      {"reorder_hold 0",
       {.reorder_storm_rate = 0.8, .reorder_hold = Duration::zero()}},
      {"ack_loss_rate -1", {.ack_loss_rate = -1.0}},
      {"ack_loss_duration 0",
       {.ack_loss_rate = 0.6, .ack_loss_duration = Duration::zero()}},
      {"ack_loss_prob -0.1", {.ack_loss_prob = -0.1}},
      {"ack_loss_prob 1.5", {.ack_loss_prob = 1.5}},
      {"ack_compress_rate -1", {.ack_compress_rate = -1.0}},
      {"ack_compress_duration 0",
       {.ack_compress_rate = 0.6, .ack_compress_duration = Duration::zero()}},
      {"rwnd_flap_rate -1", {.rwnd_flap_rate = -1.0}},
      {"rwnd_flap_duration -1ms",
       {.rwnd_flap_rate = 0.5, .rwnd_flap_duration = Duration::millis(-1)}},
      {"rtt_spike_rate -1", {.rtt_spike_rate = -1.0}},
      {"rtt_spike_duration 0",
       {.rtt_spike_rate = 0.7, .rtt_spike_duration = Duration::zero()}},
      {"rtt_spike_extra 0",
       {.rtt_spike_rate = 0.7, .rtt_spike_extra = Duration::zero()}},
      {"blackhole_rate -1", {.blackhole_rate = -1.0}},
      {"blackhole_duration 0",
       {.blackhole_rate = 0.3, .blackhole_duration = Duration::zero()}},
      // A certain drop would drop retransmissions forever.
      {"retrans_drop_prob 1", {.retrans_drop_prob = 1.0}},
      {"retrans_drop_prob -0.1", {.retrans_drop_prob = -0.1}},
  };
  ExperimentConfig experiment{.profile = cloud_storage_profile()};
  EXPECT_NO_THROW(experiment.validate());
  Rng rng(kSeed);
  const FlowScenario scenario =
      draw_scenario(cloud_storage_profile(), rng, 1);
  for (const auto& [what, chaos] : bad) {
    EXPECT_THROW(chaos.validate(), std::invalid_argument) << what;
    // The experiment checks its chaos, and run_flow checks its guard even
    // when no episode is enabled (as for the bad probabilities here).
    experiment.chaos = chaos;
    EXPECT_THROW(experiment.validate(), std::invalid_argument) << what;
    EXPECT_THROW(run_flow(scenario, Rng(kSeed ^ 7), Duration::seconds(120.0),
                          TraceCapture::kNone, FlowGuards{.chaos = chaos}),
                 std::invalid_argument)
        << what;
  }
  EXPECT_FALSE((sim::ChaosConfig{.reorder_prob = 5.0}.enabled()));

  EXPECT_NO_THROW(sim::ChaosConfig{}.validate());
  EXPECT_FALSE(sim::ChaosConfig{}.enabled());
  // A zero hold or extra means nothing while its episode kind is off.
  EXPECT_NO_THROW((sim::ChaosConfig{.reorder_hold = Duration::zero(),
                                    .rtt_spike_extra = Duration::zero()}
                       .validate()));
}

// Baseline: with chaos off, delivery verification must report every flow
// complete and intact — the tracker itself introduces no failures.
TEST(ChaosDelivery, IntactAcrossProfilesChaosOff) {
  for (const auto& profile :
       {cloud_storage_profile(), software_download_profile(),
        web_search_profile()}) {
    SCOPED_TRACE(profile.name);
    const ExperimentConfig cfg{.profile = profile,
                               .flows = 12,
                               .seed = kSeed,
                               .analyze = false,
                               .verify_delivery = true};
    const auto result = run_experiment(cfg);
    for (const auto& out : result.outcomes) {
      EXPECT_EQ(out.status, FlowStatus::kCompleted);
      EXPECT_EQ(out.chaos_injected, 0u);
      ASSERT_TRUE(out.delivery.has_value());
      EXPECT_TRUE(out.delivery->intact())
          << out.delivery->in_order_bytes << "/"
          << out.delivery->expected_bytes << " bytes, "
          << out.delivery->hole_ranges << " holes";
    }
  }
}

// Property: under the combined storm, every *completed* flow's reassembled
// byte stream hashes identically to the sent stream, and non-completed
// flows carry an explaining status.
TEST(ChaosDelivery, CompletedFlowsIntactUnderFullStorm) {
  MonitorScope monitor;
  std::uint64_t injected = 0;
  for (const auto& profile :
       {cloud_storage_profile(), software_download_profile(),
        web_search_profile()}) {
    SCOPED_TRACE(profile.name);
    const auto result = run_experiment(
        chaos_config(profile, scenario_config("everything"), 20));
    for (const auto& out : result.outcomes) {
      injected += out.chaos_injected;
      EXPECT_EQ(out.invariant_violations, 0u);
      ASSERT_TRUE(out.delivery.has_value());
      if (out.status == FlowStatus::kCompleted) {
        EXPECT_TRUE(out.delivery->intact())
            << out.delivery->in_order_bytes << "/"
            << out.delivery->expected_bytes << " bytes, "
            << out.delivery->hole_ranges << " holes";
      } else {
        EXPECT_TRUE(out.status == FlowStatus::kRwndLimited ||
                    out.status == FlowStatus::kTimeCapped)
            << to_string(out.status);
      }
    }
  }
  EXPECT_GT(injected, 0u) << "storm was inert";
  EXPECT_EQ(tcp::InvariantMonitor::total_violations(), 0u);
}

// Regression: hostile zero-window rewrites park the sender in persist mode.
// The flow must either finish (persist probes solicited an honest window)
// or classify kRwndLimited — a silent wedge fails the status check, and a
// runaway probe loop would trip the watchdog status instead.
TEST(ChaosZeroWindow, RwndFlapNeverDeadlocks) {
  MonitorScope monitor;
  // Crank the flap well past the catalog default so persist mode is
  // entered many times per flow.
  sim::ChaosConfig flap = scenario_config("rwnd-flap");
  flap.rwnd_flap_rate *= 4.0;
  std::uint64_t persist_probes = 0, zero_window_episodes = 0;
  for (const auto& profile :
       {cloud_storage_profile(), web_search_profile()}) {
    SCOPED_TRACE(profile.name);
    // The full 600 s cap: flapping makes big flows slow, and a merely-slow
    // flow hitting a short cap would be indistinguishable from a wedge.
    ExperimentConfig cfg = chaos_config(profile, flap, 25);
    cfg.max_flow_time = Duration::seconds(600.0);
    const auto result = run_experiment(cfg);
    for (const auto& out : result.outcomes) {
      persist_probes += out.sender_stats.persist_probes;
      zero_window_episodes += out.sender_stats.zero_window_episodes;
      EXPECT_NE(out.status, FlowStatus::kSimDiverged);
      EXPECT_NE(out.status, FlowStatus::kTimeCapped)
          << "flow neither finished nor classified as window-limited";
      EXPECT_TRUE(out.status == FlowStatus::kCompleted ||
                  out.status == FlowStatus::kRwndLimited)
          << to_string(out.status);
      if (out.status == FlowStatus::kCompleted) {
        ASSERT_TRUE(out.delivery.has_value());
        EXPECT_TRUE(out.delivery->intact());
      }
    }
  }
  // The scenario must actually have exercised the persist machinery.
  EXPECT_GT(zero_window_episodes, 0u);
  EXPECT_GT(persist_probes, 0u);
  EXPECT_EQ(tcp::InvariantMonitor::total_violations(), 0u);
}

// Determinism: one chaos seed produces bit-identical outcomes regardless
// of worker-thread count (the per-flow reseed scheme).
TEST(ChaosDeterminism, ParallelMatchesSerialUnderStorm) {
  const auto cfg = chaos_config(web_search_profile(),
                                scenario_config("everything"), 24);
  const auto serial = run_experiment(cfg, 1);
  const auto parallel = run_experiment(cfg, 4);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const auto& a = serial.outcomes[i];
    const auto& b = parallel.outcomes[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.chaos_injected, b.chaos_injected);
    EXPECT_EQ(a.response_bytes, b.response_bytes);
    EXPECT_EQ(a.sender_stats.segments_sent, b.sender_stats.segments_sent);
    EXPECT_EQ(a.sender_stats.retransmissions, b.sender_stats.retransmissions);
    ASSERT_TRUE(a.delivery.has_value());
    ASSERT_TRUE(b.delivery.has_value());
    EXPECT_EQ(a.delivery->delivered_hash, b.delivery->delivered_hash);
    EXPECT_EQ(a.delivery->in_order_bytes, b.delivery->in_order_bytes);
  }
}

// Determinism: default-constructed FlowGuards (chaos off, no delivery
// check, default budget) must leave the simulated packet stream
// bit-identical to the historical unguarded run_flow path.
TEST(ChaosDeterminism, ChaosOffGuardsBitIdenticalTrace) {
  Rng rng(kSeed);
  const FlowScenario scenario =
      draw_scenario(cloud_storage_profile(), rng, 1);
  const auto bare = run_flow(scenario, Rng(kSeed ^ 7), Duration::seconds(120.0),
                             TraceCapture::kServerNic);
  FlowGuards guards;
  guards.verify_delivery = true;
  guards.event_budget = kDefaultEventBudget;
  const auto guarded = run_flow(scenario, Rng(kSeed ^ 7),
                                Duration::seconds(120.0),
                                TraceCapture::kServerNic, guards);
  ASSERT_TRUE(bare.trace.has_value());
  ASSERT_TRUE(guarded.trace.has_value());
  ASSERT_EQ(bare.trace->size(), guarded.trace->size());
  for (std::size_t i = 0; i < bare.trace->size(); ++i) {
    const auto& p = (*bare.trace)[i];
    const auto& q = (*guarded.trace)[i];
    ASSERT_EQ(p.timestamp.us(), q.timestamp.us()) << "packet " << i;
    ASSERT_EQ(p.tcp.seq.raw(), q.tcp.seq.raw()) << "packet " << i;
    ASSERT_EQ(p.tcp.ack.raw(), q.tcp.ack.raw()) << "packet " << i;
    ASSERT_EQ(p.payload_len, q.payload_len) << "packet " << i;
  }
  EXPECT_EQ(bare.status, guarded.status);
  EXPECT_EQ(guarded.chaos_injected, 0u);
  ASSERT_TRUE(guarded.delivery.has_value());
  EXPECT_TRUE(guarded.delivery->intact());
}

// The watchdog: an absurdly small event budget must classify the flow as
// diverged instead of running the full simulation.
TEST(ChaosWatchdog, TinyEventBudgetTripsDiverged) {
  Rng rng(kSeed);
  const FlowScenario scenario =
      draw_scenario(cloud_storage_profile(), rng, 1);
  FlowGuards guards;
  guards.event_budget = 10;
  const auto out = run_flow(scenario, Rng(kSeed ^ 7), Duration::seconds(120.0),
                            TraceCapture::kNone, guards);
  EXPECT_EQ(out.status, FlowStatus::kSimDiverged);
  EXPECT_FALSE(out.completed);
}

// Monitor plumbing: violations reported inside a FlowScope are attributed
// to that flow and to the global counters, and reset() clears both.
TEST(ChaosInvariants, ReportAttributionAndReset) {
  MonitorScope monitor;
  {
    tcp::InvariantMonitor::FlowScope scope(42);
    tcp::InvariantMonitor::report(tcp::InvariantKind::kCwndBounds, 7, 123);
    tcp::InvariantMonitor::report(tcp::InvariantKind::kRtoRange, 9, 456);
    EXPECT_EQ(scope.violations(), 2u);
  }
  EXPECT_EQ(tcp::InvariantMonitor::total_violations(), 2u);
  EXPECT_EQ(
      tcp::InvariantMonitor::violations(tcp::InvariantKind::kCwndBounds), 1u);
  const auto recent = tcp::InvariantMonitor::recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].flow, 42u);
  EXPECT_EQ(recent[0].kind, tcp::InvariantKind::kCwndBounds);
  EXPECT_EQ(recent[1].seq, 9u);
  tcp::InvariantMonitor::reset();
  EXPECT_EQ(tcp::InvariantMonitor::total_violations(), 0u);
  EXPECT_TRUE(tcp::InvariantMonitor::recent().empty());
}

// Every catalog scenario individually: no invariant violations, no
// watchdog trips, completed flows intact. A cheaper per-scenario sweep
// than the bench harness, suitable for every ctest run.
TEST(ChaosInvariants, MonitorCleanAcrossCatalog) {
  MonitorScope monitor;
  for (const auto& sc : sim::ChaosScenario::catalog()) {
    SCOPED_TRACE(sc.name);
    const auto result =
        run_experiment(chaos_config(web_search_profile(), sc.config, 8));
    for (const auto& out : result.outcomes) {
      EXPECT_EQ(out.invariant_violations, 0u);
      EXPECT_NE(out.status, FlowStatus::kSimDiverged);
      if (out.status == FlowStatus::kCompleted) {
        ASSERT_TRUE(out.delivery.has_value());
        EXPECT_TRUE(out.delivery->intact());
      }
    }
  }
  EXPECT_EQ(tcp::InvariantMonitor::total_violations(), 0u);
}

}  // namespace
