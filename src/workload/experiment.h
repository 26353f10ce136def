// Experiment harness: generate -> simulate -> capture -> analyze.
//
// Each flow runs in its own fresh simulator (flows are independent in the
// paper's per-connection analysis), so experiments are deterministic given
// a seed and embarrassingly simple to reason about. The same seed with a
// different recovery mechanism replays the *same* workload — the paper's
// production A/B methodology for Table 8/9 (§5.2).
//
// `run_experiment` here is the buffering compatibility layer: it collects
// every per-flow result into one ExperimentResult. Large sweeps should use
// the streaming `ParallelRunner` + `FlowSink` API in workload/runner.h,
// which shards flows across a worker pool and never needs to materialize
// all analyses at once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/trace.h"
#include "sim/capture_channel.h"
#include "sim/chaos.h"
#include "tapo/analyzer.h"
#include "tapo/sink.h"
#include "tcp/connection.h"
#include "workload/profiles.h"

namespace tapo::workload {

/// Whether a flow's server-NIC packets are captured and returned in the
/// FlowOutcome. Capture is owned by the outcome (value semantics) — there
/// is no caller-managed trace buffer to keep alive.
enum class TraceCapture {
  kNone,       // simulate only; FlowOutcome::trace is empty
  kServerNic,  // keep the per-flow capture in FlowOutcome::trace
};

/// Watchdog default: generous enough that no legitimate flow (even a 600 s
/// zero-window crawl) comes near it, small enough that a runaway event loop
/// trips in well under a second of wall time.
inline constexpr std::size_t kDefaultEventBudget = 20'000'000;

/// Per-flow protective wrappers around the simulation: hostile-network
/// chaos injection, byte-stream delivery verification, and the runaway-
/// event watchdog. Default-constructed guards are inert — run_flow with
/// `FlowGuards{}` is bit-identical to the pre-guard code path.
struct FlowGuards {
  /// Hostile-network scenario layered on the flow's links (off when
  /// !chaos.enabled()). Seed it per flow (scenario_seed ^ flow_seed) so
  /// parallel runs stay bit-identical to serial.
  sim::ChaosConfig chaos;
  /// Shadow-reassemble the client-delivered byte stream and report a
  /// DeliverySummary in the outcome.
  bool verify_delivery = false;
  /// Per-flow simulator event budget; 0 = unlimited. Exhausting it marks
  /// the flow FlowStatus::kSimDiverged instead of hanging the worker.
  std::size_t event_budget = 0;
  /// Attribution id for invariant violations (runner: run << 32 | index).
  std::uint64_t flow_id = 0;
};

struct ExperimentConfig {
  ServiceProfile profile{};
  std::size_t flows = 300;
  std::uint64_t seed = 1;
  /// Overrides the profile sender's recovery mechanism (Table 8/9 A/B).
  std::optional<tcp::RecoveryMechanism> recovery{};
  std::optional<tcp::SrtoConfig> srto{};
  /// Hard per-flow wall-clock cap in simulated time.
  Duration max_flow_time = Duration::seconds(600.0);
  bool analyze = true;
  analysis::AnalyzerConfig analyzer{};
  /// Capture-realism impairments (sim::apply_impairments) applied to each
  /// flow's server-NIC trace before analysis. The runner captures only to
  /// analyze and drops each trace after analysis, so a FlowResult never
  /// carries one. Default-off: everything downstream sees the pristine
  /// tap, bit-identically. The per-flow channel seed is
  /// impairments.seed ^ the flow's derived seed, so parallel runs stay
  /// deterministic and bit-identical to serial.
  sim::CaptureImpairments impairments{};
  /// Hostile-network chaos applied to every flow's links (sim::ChaosConfig;
  /// default-off = bit-identical passthrough). Reseeded per flow exactly
  /// like `impairments`.
  sim::ChaosConfig chaos{};
  /// Shadow-verify each flow's delivered byte stream
  /// (FlowOutcome::delivery).
  bool verify_delivery = false;
  /// Per-flow simulator event watchdog; 0 disables.
  std::size_t event_budget = kDefaultEventBudget;

  // Kept only because bench/perf_baseline/workloads.cc builds its configs
  // with them; everything else assigns the fields.
  ExperimentConfig& with_profile(ServiceProfile p) {
    profile = std::move(p);
    return *this;
  }
  ExperimentConfig& with_flows(std::size_t n) {
    flows = n;
    return *this;
  }
  ExperimentConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }

  /// Full validation, run by every runner entry point before any flow is
  /// simulated; the only place these fields are checked. Throws
  /// std::invalid_argument with a self-explanatory message on flows == 0,
  /// an empty/default profile (no rwnd classes — the silent-empty-tables
  /// failure mode), a non-positive flow cap, or a bad `impairments` or
  /// `chaos` (their own validate()). `analyzer` is checked by the
  /// Analyzer the runner constructs.
  void validate() const;
};

/// Re-export: the outcome shape lives in tapo/sink.h so the streaming
/// LiveAnalyzer (below the workload layer) can deliver the same FlowResult.
using FlowOutcome = tapo::FlowOutcome;

struct ExperimentResult {
  std::vector<FlowOutcome> outcomes;
  /// One entry per flow when config.analyze is set.
  std::vector<analysis::FlowAnalysis> analyses;
  std::uint64_t total_packets = 0;  // captured at the server NIC

  std::uint64_t data_segments_sent = 0;
  std::uint64_t retransmissions = 0;
  /// Table 9: retransmitted / sent data segments.
  double retrans_ratio() const {
    return data_segments_sent
               ? static_cast<double>(retransmissions) /
                     static_cast<double>(data_segments_sent)
               : 0.0;
  }
};

/// Runs one flow scenario to completion (or the time cap) in a private
/// simulator. With TraceCapture::kServerNic the captured packets are
/// returned inside the outcome. `guards` layers chaos injection, delivery
/// verification, and the event watchdog on top; the default is inert.
/// Throws std::invalid_argument when `guards.chaos` fails validate(), even
/// when it configures no impairment.
FlowOutcome run_flow(const FlowScenario& scenario, Rng link_rng,
                     Duration max_flow_time,
                     TraceCapture capture = TraceCapture::kNone,
                     const FlowGuards& guards = {});

/// Compatibility entry point: runs the experiment (on `threads` workers;
/// 1 = serial, 0 = all hardware threads) and buffers everything into an
/// ExperimentResult. Output is bit-identical for any thread count — see
/// workload/runner.h for the seed-derivation scheme that guarantees it.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::size_t threads = 1);

}  // namespace tapo::workload
