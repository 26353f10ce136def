#include "workload/runner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <map>

#include "telemetry/telemetry.h"
#include "util/mutex.h"
#include "util/worker_pool.h"

namespace tapo::workload {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Per-worker phase accumulators, padded so workers never share a line.
struct alignas(64) PhaseAccum {
  double generate = 0.0;
  double simulate = 0.0;
  double analyze = 0.0;
};

}  // namespace

std::vector<std::uint64_t> derive_flow_seeds(std::uint64_t seed,
                                             std::size_t flows) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(flows);
  Rng master(seed);
  for (std::size_t i = 0; i < flows; ++i) seeds.push_back(master.split_seed());
  return seeds;
}

ParallelRunner::ParallelRunner(ExperimentConfig config, RunOptions options)
    : config_(std::move(config)), options_(std::move(options)) {}

RunStats ParallelRunner::run(FlowSink& sink) {
  config_.validate();
  const std::size_t flows = config_.flows;
  std::size_t threads = options_.threads == 0
                            ? util::WorkerPool::hardware_threads()
                            : options_.threads;
  if (threads > flows) threads = flows;
  if (threads == 0) threads = 1;

  const std::vector<std::uint64_t> seeds = derive_flow_seeds(config_.seed, flows);
  const analysis::Analyzer analyzer(config_.analyzer);
  const bool keep_trace = config_.capture == TraceCapture::kServerNic;
  const bool need_capture = config_.analyze || keep_trace;

  std::vector<PhaseAccum> phase(threads);

  // Ordered merge: completed flows park here until every lower index has
  // been handed to the sink. Workers also gate on the emission window
  // before simulating, so one slow flow cannot make the buffer (and the
  // parked traces/analyses) grow without bound. merge_mu is the capability
  // guarding pending/next_to_emit and serializing the sink (locals cannot
  // carry TAPO_GUARDED_BY, so the guarded set is documented here; the
  // annotated util::MutexLock still makes every acquisition visible to
  // -Wthread-safety).
  util::Mutex merge_mu;
  util::CondVar window_cv;
  std::map<std::size_t, FlowResult> pending;
  std::size_t next_to_emit = 0;
  const std::size_t window = 8 * threads;
  // Guards the sink/progress serialization contract (runner.h): consume()
  // and progress() run strictly one-at-a-time under merge_mu. The assert
  // makes a future locking regression fail loudly in debug/TSan builds.
  std::atomic<int> merge_entrants{0};

  // One run = one Chrome-trace process; flows become its threads.
  std::uint64_t run_id = 0;
  if (telemetry::tracing_enabled()) {
    run_id = telemetry::Tracer::instance().begin_run(config_.profile.name);
    TAPO_TRACE(telemetry::EventKind::kRunBegin, 0, run_id, flows);
  }

  auto task = [&](std::size_t i, std::size_t worker) {
    const telemetry::FlowScope flow_scope((run_id << 32) | i);
    if (threads > 1) {
      util::MutexLock lock(merge_mu);
      // Never blocks the worker holding the lowest outstanding index, so
      // the window always drains.
      while (i >= next_to_emit + window) window_cv.wait(merge_mu);
    }

    PhaseAccum& acc = phase[worker];
    const auto t0 = Clock::now();
    Rng flow_rng(seeds[i]);
    FlowScenario scenario = draw_scenario(config_.profile, flow_rng, i + 1);
    if (config_.recovery) scenario.connection.sender.recovery = *config_.recovery;
    if (config_.srto) scenario.connection.sender.srto = *config_.srto;
    const auto t1 = Clock::now();

    FlowGuards guards;
    guards.chaos = config_.chaos;
    // Per-flow reseed of a private copy, exactly like `impairments` below:
    // the validated base config stays untouched and any seed is legal.
    guards.chaos.seed ^= seeds[i];
    guards.verify_delivery = config_.verify_delivery;
    guards.event_budget = config_.event_budget;
    guards.flow_id = (run_id << 32) | i;
    FlowOutcome outcome = run_flow(
        scenario, flow_rng.split(), config_.max_flow_time,
        need_capture ? TraceCapture::kServerNic : TraceCapture::kNone, guards);
    if (config_.impairments.enabled() && outcome.trace) {
      // Degrade the pristine tap before anything downstream sees it, with
      // a per-flow channel seed so parallel stays bit-identical to serial.
      sim::CaptureImpairments imp = config_.impairments;
      imp.seed ^= seeds[i];
      outcome.trace = sim::apply_impairments(*outcome.trace, imp);
    }
    const auto t2 = Clock::now();

    FlowResult result;
    result.index = i;
    result.packets = outcome.trace ? outcome.trace->size() : 0;
    if (config_.analyze && outcome.trace && !outcome.trace->empty()) {
      result.analyses = analyzer.analyze(*outcome.trace).flows;
    }
    const auto t3 = Clock::now();
    if (!keep_trace) outcome.trace.reset();
    result.outcome = std::move(outcome);

    acc.generate += seconds_between(t0, t1);
    acc.simulate += seconds_between(t1, t2);
    acc.analyze += seconds_between(t2, t3);

    TAPO_TRACE(telemetry::EventKind::kFlowDone,
               static_cast<std::int64_t>(
                   (acc.generate + acc.simulate + acc.analyze) * 1e6),
               result.packets, result.analyses.size());

    util::MutexLock lock(merge_mu);
    const int entrants = merge_entrants.fetch_add(1, std::memory_order_acq_rel);
    assert(entrants == 0 && "FlowSink/progress serialization violated");
    (void)entrants;
    pending.emplace(i, std::move(result));
    bool advanced = false;
    while (!pending.empty() && pending.begin()->first == next_to_emit) {
      sink.consume(std::move(pending.begin()->second));
      pending.erase(pending.begin());
      ++next_to_emit;
      advanced = true;
      if (options_.progress) options_.progress(next_to_emit, flows);
    }
    merge_entrants.fetch_sub(1, std::memory_order_acq_rel);
    if (advanced && threads > 1) window_cv.notify_all();
  };

  const auto wall0 = Clock::now();
  double busy = 0.0;
  if (threads <= 1) {
    for (std::size_t i = 0; i < flows; ++i) task(i, 0);
  } else {
    util::WorkerPool pool(threads);
    pool.for_each(flows, task);
    for (const double b : pool.busy_seconds()) busy += b;
  }
  const double wall = seconds_between(wall0, Clock::now());

  RunStats stats;
  stats.flows = flows;
  stats.threads = threads;
  stats.wall_seconds = wall;
  for (const PhaseAccum& acc : phase) {
    stats.generate_seconds += acc.generate;
    stats.simulate_seconds += acc.simulate;
    stats.analyze_seconds += acc.analyze;
  }
  if (threads <= 1) {
    busy = stats.generate_seconds + stats.simulate_seconds + stats.analyze_seconds;
  }
  if (wall > 0.0) {
    stats.flows_per_second = static_cast<double>(flows) / wall;
    stats.worker_utilization =
        std::min(1.0, busy / (static_cast<double>(threads) * wall));
  }
  TAPO_TRACE(telemetry::EventKind::kRunEnd,
             static_cast<std::int64_t>(wall * 1e6), run_id, flows);
  if (telemetry::metrics_enabled()) {
    auto& registry = telemetry::Registry::instance();
    static auto& flows_total = registry.counter("tapo_runner_flows_total");
    flows_total.add(flows);
    registry.gauge("tapo_runner_last_wall_seconds").set(wall);
    registry.gauge("tapo_runner_last_flows_per_second")
        .set(stats.flows_per_second);
    registry.gauge("tapo_runner_last_worker_utilization")
        .set(stats.worker_utilization);
  }
  sink.finish(stats);
  return stats;
}

void CollectingSink::consume(FlowResult&& result) {
  result_.total_packets += result.packets;
  result_.data_segments_sent += result.outcome.sender_stats.segments_sent;
  result_.retransmissions += result.outcome.sender_stats.retransmissions;
  for (auto& fa : result.analyses) result_.analyses.push_back(std::move(fa));
  result_.outcomes.push_back(std::move(result.outcome));
}

void BreakdownSink::consume(FlowResult&& result) {
  ++flows_;
  total_packets_ += result.packets;
  data_segments_sent_ += result.outcome.sender_stats.segments_sent;
  retransmissions_ += result.outcome.sender_stats.retransmissions;
  for (const auto& fa : result.analyses) {
    stalls_.add(fa);
    retrans_.add(fa);
    if (fa.transmission_time > Duration::zero()) stall_ratio_.add(fa.stall_ratio);
  }
}

}  // namespace tapo::workload
