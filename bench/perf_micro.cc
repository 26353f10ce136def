// Library micro-benchmarks (google-benchmark): how fast the simulator and
// the TAPO analyzer run. Useful for sizing large trace analyses.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

#include "pcap/pcap.h"
#include "sim/simulator.h"
#include "tapo/analyzer.h"
#include "telemetry/telemetry.h"
#include "util/env.h"
#include "workload/experiment.h"
#include "workload/runner.h"

using namespace tapo;

// ---------------------------------------------------------------------------
// Global allocation counter, used by the demux and analyzer benchmarks to
// report their per-packet allocation costs. Relaxed atomics: the
// benchmarks are single-threaded; we only need totals.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct AllocSnapshot {
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  std::uint64_t count = g_alloc_count.load(std::memory_order_relaxed);
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  std::uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
};

/// Pre-simulated trace shared by the analyzer benchmarks.
const net::PacketTrace& sample_trace() {
  static const net::PacketTrace trace = [] {
    workload::ExperimentConfig cfg;
    cfg.profile = workload::cloud_storage_profile();
    Rng master(99);
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(cfg.profile, flow_rng, 1);
    auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    return std::move(*outcome.trace);
  }();
  return trace;
}

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(Duration::micros(i), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_SimulateOneFlow(benchmark::State& state) {
  workload::ExperimentConfig cfg;
  cfg.profile = workload::web_search_profile();
  Rng master(7);
  for (auto _ : state) {
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(cfg.profile, flow_rng, 1);
    const auto outcome = workload::run_flow(scenario, flow_rng.split(),
                                            Duration::seconds(600.0));
    benchmark::DoNotOptimize(outcome.completed);
  }
}
BENCHMARK(BM_SimulateOneFlow);

// The sharded experiment runner on the standard 400-flow workload
// (TAPO_BENCH_FLOWS overrides), at 1/2/4 worker threads. Results are
// bit-identical across thread counts; only wall clock changes.
void BM_RunExperimentThreads(benchmark::State& state) {
  workload::ExperimentConfig cfg;
  cfg.profile = workload::web_search_profile();
  cfg.flows = util::env_positive_size("TAPO_BENCH_FLOWS", 400);
  cfg.seed = 2015;
  for (auto _ : state) {
    workload::RunOptions options;
    options.threads = static_cast<std::size_t>(state.range(0));
    workload::ParallelRunner runner(cfg, std::move(options));
    workload::BreakdownSink sink;
    const auto stats = runner.run(sink);
    benchmark::DoNotOptimize(sink.retrans_ratio());
    state.counters["flows_per_s"] = stats.flows_per_second;
    state.counters["util"] = stats.worker_utilization;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.flows));
}
BENCHMARK(BM_RunExperimentThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// Telemetry overhead: the same single-flow simulate+analyze loop as
// BM_SimulateOneFlow, with tracing + metrics fully off (the shipped
// default — one relaxed load per instrumentation site) vs fully on
// (tracer recording control+lifecycle events, registry counting).
// Arg(0) = disabled, Arg(1) = enabled, so the ratio of the two is what
// enabling costs. What the disabled hooks cost is not measured here: that
// would need a build without them.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  if (on) {
    telemetry::enable_all();
  } else {
    telemetry::disable_and_reset_all();
  }
  workload::ExperimentConfig cfg;
  cfg.profile = workload::web_search_profile();
  analysis::Analyzer analyzer;
  Rng master(7);
  for (auto _ : state) {
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(cfg.profile, flow_rng, 1);
    const auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    auto result = analyzer.analyze(*outcome.trace);
    benchmark::DoNotOptimize(result.flows.size());
  }
  telemetry::disable_and_reset_all();
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Name("telemetry_overhead");

/// A 32-flow cloud-storage trace merged into one arena — the demux and
/// analyzer benchmarks need multiple interleaved flows to be honest.
const net::PacketTrace& multi_flow_trace() {
  static const net::PacketTrace trace = [] {
    workload::ExperimentConfig cfg;
    cfg.profile = workload::cloud_storage_profile();
    Rng master(99);
    net::PacketTrace merged;
    for (std::uint64_t f = 0; f < 32; ++f) {
      Rng flow_rng = master.split();
      const auto scenario = workload::draw_scenario(cfg.profile, flow_rng, f);
      auto outcome = workload::run_flow(scenario, flow_rng.split(),
                                        Duration::seconds(600.0),
                                        workload::TraceCapture::kServerNic);
      for (const auto& p : outcome.trace->packets()) merged.add(p);
    }
    merged.sort_by_time();
    return merged;
  }();
  return trace;
}

/// Zero-copy demux_flow_views: one FlowAccumulator pass; the only
/// per-packet state left is the 8 B pointer pool. Reports per-packet
/// allocation and representation bytes alongside throughput.
void BM_Demux(benchmark::State& state) {
  const auto& trace = multi_flow_trace();
  const auto pkts = static_cast<double>(trace.size());
  AllocSnapshot before;
  std::uint64_t rep_bytes = 0;
  for (auto _ : state) {
    const auto views = analysis::demux_flow_views(trace);
    rep_bytes = views.pool_bytes();
    benchmark::DoNotOptimize(views.size());
  }
  const AllocSnapshot after;
  const double iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_pkt"] =
      static_cast<double>(after.count - before.count) / iters / pkts;
  state.counters["alloc_B_per_pkt"] =
      static_cast<double>(after.bytes - before.bytes) / iters / pkts;
  state.counters["rep_B_per_pkt"] = static_cast<double>(rep_bytes) / pkts;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_Demux);

/// Analyzer::analyze over the same trace: demuxes the arena in place and
/// analyzes the FlowViews with no per-packet copy.
void BM_AnalyzeTrace(benchmark::State& state) {
  const auto& trace = multi_flow_trace();
  analysis::Analyzer analyzer;
  AllocSnapshot before;
  for (auto _ : state) {
    auto result = analyzer.analyze(trace);
    benchmark::DoNotOptimize(result.flows.size());
  }
  const AllocSnapshot after;
  const double iters = static_cast<double>(state.iterations());
  const auto pkts = static_cast<double>(trace.size());
  state.counters["allocs_per_pkt"] =
      static_cast<double>(after.count - before.count) / iters / pkts;
  state.counters["arena_B_per_pkt"] =
      static_cast<double>(trace.capacity_bytes()) / pkts;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_AnalyzeTrace);

void BM_PcapWrite(benchmark::State& state) {
  const auto& trace = sample_trace();
  for (auto _ : state) {
    std::stringstream ss;
    pcap::write_stream(ss, trace);
    benchmark::DoNotOptimize(ss.str().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_PcapWrite);

void BM_PcapRead(benchmark::State& state) {
  const auto& trace = sample_trace();
  std::stringstream base;
  pcap::write_stream(base, trace);
  const std::string bytes = base.str();
  for (auto _ : state) {
    std::stringstream ss(bytes);
    auto back = pcap::read_stream(ss);
    benchmark::DoNotOptimize(back.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_PcapRead);

}  // namespace

BENCHMARK_MAIN();
