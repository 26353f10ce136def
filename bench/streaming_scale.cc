// Streaming-pipeline scale harness: proves the bounded-memory claim with
// an allocator-level measurement, not just the pipeline's own ledger.
//
// A multi-flow trace at least 10x larger than the memory budget is written
// as a pcap file, then analyzed twice:
//
//   batch      pcap::read_file -> Analyzer::analyze  (whole arena resident)
//   streaming  pcap::StreamingReader -> LiveAnalyzer, both charging one
//              util::MemoryBudget
//
// Global operator new/delete are replaced with a live-byte counter
// (malloc_usable_size-symmetric, like perf_micro's allocation counters),
// so "peak resident" below means real heap bytes, including everything the
// budget ledger does NOT track (stream buffers, hash-table nodes,
// transient demux state). Hard gates (exit code 1 on violation):
//
//   * the trace arena is >= 10x the budget limit;
//   * the streaming ledger's high-water mark stays <= the limit;
//   * the allocator-measured streaming peak stays <= the limit;
//   * the allocator-measured batch peak EXCEEDS the limit (i.e. the gate
//     would catch a regression that quietly re-materializes the trace);
//   * streaming and batch agree on the packet count, and streaming
//     analyzes at least as many flow segments as batch (budget evictions
//     split flows, never drop packets silently).
//
// Knobs: TAPO_BENCH_FLOWS caps the flow count (default 600; generation
// also stops once the arena passes the size target), TAPO_BENCH_THREADS
// is unused (single-threaded by design: the counters are not atomic-free).
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "common.h"
#include "pcap/pcap.h"
#include "tapo/analyzer.h"
#include "tapo/live.h"
#include "util/memory_budget.h"
#include "util/rng.h"

using namespace tapo;
using namespace tapo::bench;

// ---------------------------------------------------------------------------
// Live-byte allocator accounting. Relaxed atomics: the harness is
// single-threaded; we only need totals and a monotone peak.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  if (live > g_peak.load(std::memory_order_relaxed)) {
    // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
    g_peak.store(live, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  if (void* p = std::malloc(n)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) {
  if (p == nullptr) return;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
  g_live.fetch_sub(n, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
// The nothrow forms (std::stable_sort's temporary buffer) must come from
// the same malloc as the replaced deletes free into; a sanitizer runtime
// otherwise supplies its own and reports every such free as a mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n);
  if (p != nullptr) note_alloc(p);
  return p;
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

/// Peak-above-baseline for one measured region.
struct PeakMeter {
  std::int64_t base = 0;
  void begin() {
    // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
    base = g_live.load(std::memory_order_relaxed);
    // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
    g_peak.store(base, std::memory_order_relaxed);
  }
  std::int64_t peak() const {
    // tapo-lint: allow(relaxed-atomic) — single-thread bench counters
    return g_peak.load(std::memory_order_relaxed) - base;
  }
};

/// Interleaved multi-flow trace: alternating cloud-storage (elephant) and
/// web-search (mouse) flows, merged and time-sorted so many flows are
/// concurrently open — the worst case for a flow-table's residency.
net::PacketTrace build_trace(std::size_t target_bytes, std::size_t max_flows) {
  Rng master(kBenchSeed);
  net::PacketTrace merged;
  std::size_t flows = 0;
  while (merged.size() * sizeof(net::CapturedPacket) < target_bytes &&
         flows < max_flows) {
    const auto& profile = (flows % 2 == 0) ? workload::cloud_storage_profile()
                                           : workload::web_search_profile();
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(profile, flow_rng, flows);
    auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    for (const auto& p : outcome.trace->packets()) merged.add(p);
    ++flows;
  }
  merged.sort_by_time();
  std::printf("trace: %zu flows, %zu packets, %.1f KiB arena\n", flows,
              merged.size(),
              static_cast<double>(merged.size() *
                                  sizeof(net::CapturedPacket)) /
                  1024.0);
  return merged;
}

analysis::LiveConfig unbounded_live_config(util::MemoryBudget* budget) {
  return {.idle_timeout = Duration::max(),
          .fin_linger = Duration::max(),
          .mem_budget = budget};
}

/// Counts the analyses the live analyzer finalizes and keeps none of
/// them, so the streaming peak measures the pipeline, not retained
/// results.
class FlowCounter : public FlowSink {
 public:
  void consume(FlowResult&& result) override {
    flows += result.analyses.size();
  }

  std::size_t flows = 0;
};

double mib(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  init_telemetry(argc, argv);

  const std::size_t max_flows = flows_per_service(600);
  print_banner("Streaming pipeline at scale: bounded memory vs batch",
               "streaming TAPO integration (paper §3.3 deployment)",
               max_flows);

  // Target a ~4 MiB arena (capped by the flow budget) and size the memory
  // budget at arena/12 so the trace is comfortably >= 10x the limit.
  const net::PacketTrace trace =
      build_trace(/*target_bytes=*/4 << 20, max_flows);
  const std::size_t arena_bytes = trace.size() * sizeof(net::CapturedPacket);
  const std::size_t limit = arena_bytes / 12;
  const double ratio =
      static_cast<double>(arena_bytes) / static_cast<double>(limit);

  const auto pcap_path =
      std::filesystem::temp_directory_path() / "tapo_streaming_scale.pcap";
  pcap::write_file(pcap_path.string(), trace);

  bool failed = false;
  std::printf("budget: %.2f MiB limit (trace arena %.2f MiB, %.1fx)\n\n",
              mib(static_cast<std::int64_t>(limit)),
              mib(static_cast<std::int64_t>(arena_bytes)), ratio);
  if (ratio < 10.0) {
    std::printf("FAIL: trace is only %.1fx the budget (need >= 10x)\n", ratio);
    failed = true;
  }

  // ---- batch: whole trace resident ----
  PeakMeter batch_meter;
  std::size_t batch_flows = 0;
  std::size_t batch_packets = 0;
  double batch_secs = 0.0;
  {
    batch_meter.begin();
    const auto t0 = std::chrono::steady_clock::now();
    const net::PacketTrace loaded = pcap::read_file(pcap_path.string());
    analysis::Analyzer analyzer;
    const auto result = analyzer.analyze(loaded);
    batch_secs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    batch_flows = result.flows.size();
    batch_packets = loaded.size();
  }
  const std::int64_t batch_peak = batch_meter.peak();
  std::printf("[batch]  %zu flows, %zu packets in %.2fs, peak %.2f MiB\n",
              batch_flows, batch_packets, batch_secs, mib(batch_peak));

  // ---- streaming: chunked reader + live analyzer on one ledger ----
  util::MemoryBudget budget(limit);
  PeakMeter stream_meter;
  std::size_t stream_flows = 0;
  std::uint64_t stream_packets = 0;
  std::uint64_t evictions = 0;
  double stream_secs = 0.0;
  {
    stream_meter.begin();
    const auto t0 = std::chrono::steady_clock::now();
    pcap::StreamingReader reader(
        pcap_path.string(),
        pcap::StreamingOptions{.chunk_packets = 4096, .budget = &budget});
    FlowCounter counter;
    analysis::LiveAnalyzer live(unbounded_live_config(&budget), counter);
    while (auto chunk = reader.next_chunk()) {
      live.add_chunk(*chunk);  // chunk dies each iteration: no double-hold
    }
    live.flush();
    stream_secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    stream_flows = counter.flows;
    stream_packets = live.stats().packets;
    evictions = live.stats().budget_evictions;
  }
  const std::int64_t stream_peak = stream_meter.peak();
  std::printf("[stream] %zu flow segments, %llu packets in %.2fs, "
              "peak %.2f MiB, ledger high-water %.2f MiB, %llu budget "
              "evictions\n",
              stream_flows, static_cast<unsigned long long>(stream_packets),
              stream_secs, mib(stream_peak),
              mib(static_cast<std::int64_t>(budget.high_water())),
              static_cast<unsigned long long>(evictions));

  std::filesystem::remove(pcap_path);

  // ---- gates ----
  if (budget.high_water() > limit) {
    std::printf("FAIL: ledger high-water %.2f MiB exceeds the %.2f MiB "
                "limit\n",
                mib(static_cast<std::int64_t>(budget.high_water())),
                mib(static_cast<std::int64_t>(limit)));
    failed = true;
  }
  if (budget.resident() != 0) {
    std::printf("FAIL: %zu bytes still charged after flush\n",
                budget.resident());
    failed = true;
  }
  if (stream_peak > static_cast<std::int64_t>(limit)) {
    std::printf("FAIL: streaming allocator peak %.2f MiB exceeds the "
                "%.2f MiB budget\n",
                mib(stream_peak), mib(static_cast<std::int64_t>(limit)));
    failed = true;
  }
  if (batch_peak <= static_cast<std::int64_t>(limit)) {
    std::printf("FAIL: batch peak %.2f MiB under the budget — the trace is "
                "too small for the gate to mean anything\n",
                mib(batch_peak));
    failed = true;
  }
  if (stream_packets != batch_packets) {
    std::printf("FAIL: streaming saw %llu packets, batch saw %zu\n",
                static_cast<unsigned long long>(stream_packets),
                batch_packets);
    failed = true;
  }
  if (stream_flows < batch_flows) {
    std::printf("FAIL: streaming analyzed %zu flow segments < batch's %zu "
                "flows\n",
                stream_flows, batch_flows);
    failed = true;
  }

  write_telemetry_artifacts();
  if (failed) {
    std::printf("RESULT: FAIL\n");
    return 1;
  }
  std::printf("RESULT: OK  (streaming peak %.2fx budget, batch %.2fx)\n",
              static_cast<double>(stream_peak) / static_cast<double>(limit),
              static_cast<double>(batch_peak) / static_cast<double>(limit));
  return 0;
}
