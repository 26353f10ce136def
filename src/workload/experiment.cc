#include "workload/experiment.h"

#include <stdexcept>

#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/runner.h"

namespace tapo::workload {

void ExperimentConfig::validate() const {
  if (flows == 0) {
    throw std::invalid_argument(
        "ExperimentConfig: flows must be > 0 (a zero-flow experiment would "
        "silently produce empty tables)");
  }
  if (profile.rwnd_mix.empty()) {
    throw std::invalid_argument(
        "ExperimentConfig: profile has no rwnd classes — it looks "
        "default-constructed; use profile_for()/cloud_storage_profile()/"
        "software_download_profile()/web_search_profile()");
  }
  if (max_flow_time <= Duration::zero()) {
    throw std::invalid_argument(
        "ExperimentConfig: max_flow_time must be positive");
  }
  impairments.validate();
  chaos.validate();
}

FlowOutcome run_flow(const FlowScenario& scenario, Rng link_rng,
                     Duration max_flow_time, TraceCapture capture,
                     const FlowGuards& guards) {
  guards.chaos.validate();
  FlowOutcome out;
  if (capture == TraceCapture::kServerNic) out.trace.emplace();

  sim::Simulator sim;
  sim::Link down(sim, scenario.down_link, link_rng.split());
  sim::Link up(sim, scenario.up_link, link_rng.split());
  tcp::Connection conn(sim, down, up, scenario.connection,
                       out.trace ? &*out.trace : nullptr);

  // Attribute any invariant violations during this simulation to this flow.
  tcp::InvariantMonitor::FlowScope invariant_scope(guards.flow_id);

  // Shadow delivery tracker: wraps the down link's deliver handler so it
  // sees exactly the data segments the client endpoint sees.
  std::optional<tcp::DeliveryTracker> tracker;
  sim::Link::DeliverFn tracker_inner;
  if (guards.verify_delivery) {
    // Stream offset 0 is server_isn + 1 (the SYN consumes one sequence).
    tracker.emplace(net::advance(scenario.connection.server_isn, 1));
    tracker_inner = down.swap_deliver([&](const net::CapturedPacket& pkt) {
      if (pkt.payload_len > 0) tracker->on_data(pkt.tcp.seq, pkt.payload_len);
      tracker_inner(pkt);
    });
  }

  // Chaos wraps outermost (link -> chaos -> tracker -> connection): the
  // tracker verifies what survives the hostile network, and the endpoints
  // stay unaware of both observers.
  std::optional<sim::ChaosInjector> chaos;
  if (guards.chaos.enabled()) {
    chaos.emplace(sim, down, up, guards.chaos);
    chaos->attach([&conn] { return !conn.done(); });
  }

  conn.start();
  const TimePoint deadline = sim.now() + max_flow_time;
  const std::size_t budget =
      guards.event_budget == 0 ? SIZE_MAX : guards.event_budget;
  const std::size_t executed = sim.run_until(deadline, budget);
  const bool diverged = executed >= budget && sim.next_event_time() &&
                        *sim.next_event_time() <= deadline;

  out.metrics = conn.metrics();
  out.sender_stats = conn.sender().stats();
  out.init_rwnd_bytes = conn.init_rwnd_bytes();
  for (const auto& r : scenario.connection.requests) {
    out.response_bytes += r.response_bytes;
  }
  out.completed = conn.metrics().completed;
  if (diverged) {
    out.status = FlowStatus::kSimDiverged;
    if (telemetry::metrics_enabled()) {
      static auto& trips = telemetry::Registry::instance().counter(
          "tapo_sim_watchdog_trips_total");
      trips.add(1);
    }
  } else if (out.completed) {
    out.status = FlowStatus::kCompleted;
  } else if (conn.sender().zero_window() || conn.sender().peer_rwnd() == 0) {
    out.status = FlowStatus::kRwndLimited;
  } else {
    out.status = FlowStatus::kTimeCapped;
  }
  if (tracker) out.delivery = tracker->finalize(out.response_bytes);
  if (chaos) out.chaos_injected = chaos->stats().total_injected();
  out.invariant_violations = invariant_scope.violations();
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::size_t threads) {
  ParallelRunner runner(config, RunOptions{.threads = threads});
  CollectingSink sink;
  runner.run(sink);
  return sink.take();
}

}  // namespace tapo::workload
