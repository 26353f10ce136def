// Structured event tracer with lock-free-per-thread bounded ring buffers.
//
// Each recording thread owns a shard (a fixed-capacity ring of TraceEvents)
// handed out by the tracer on first use; recording is a plain store into
// the ring, so instrumented hot paths never contend on a lock. When a ring
// wraps, the oldest events are overwritten and counted in dropped().
//
// Recording is gated two ways, cheapest first:
//   1. a process-wide enabled flag (one relaxed atomic load; see
//      telemetry.h);
//   2. per-flow sampling — FlowScope marks the current thread's flow, and
//      only every `sample_every`-th flow records (plus a category mask
//      that keeps high-volume packet events off by default).
//
// Export (Chrome trace_event JSON for chrome://tracing / Perfetto, and
// JSONL for scripting) must run after the recording threads have been
// joined — the runner's pool join / sim completion provides that ordering.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/events.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tapo::telemetry {

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Category mask (Category bits). Default: control + lifecycle — packet
  /// tx/rx events are high-volume and opt-in.
  void set_categories(unsigned mask) { categories_.store(mask, std::memory_order_relaxed); }
  unsigned categories() const { return categories_.load(std::memory_order_relaxed); }

  /// Record events only for flows whose index is a multiple of `n`
  /// (1 = every flow, the default; 0 behaves as 1).
  void set_sample_every(std::uint64_t n) { sample_every_.store(n ? n : 1, std::memory_order_relaxed); }
  std::uint64_t sample_every() const { return sample_every_.load(std::memory_order_relaxed); }

  /// Ring capacity (events) for shards created after the call.
  void set_shard_capacity(std::size_t events) TAPO_EXCLUDES(mu_);

  /// True when an event of `kind` would be recorded on this thread right
  /// now (enabled + category on + current flow sampled).
  bool should_record(EventKind kind) const;

  /// Appends one event to the calling thread's ring. The flow id is taken
  /// from the active FlowScope (0 outside any scope).
  void record(EventKind kind, std::int64_t ts_us, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Registers a run (e.g. one ParallelRunner invocation) and returns its
  /// id, used as the pid in Chrome-trace output. `label` becomes the
  /// process name ("web search", ...).
  std::uint32_t begin_run(const std::string& label) TAPO_EXCLUDES(mu_);

  /// All buffered events, merged across shards, ordered by (flow, ts).
  std::vector<TraceEvent> collect() const TAPO_EXCLUDES(mu_);
  std::uint64_t dropped() const TAPO_EXCLUDES(mu_);

  /// {"traceEvents": [...]} — loads in chrome://tracing and Perfetto.
  /// Stall spans render as duration ("X") slices named by root cause; cwnd
  /// changes as counter ("C") tracks; everything else as instants.
  void export_chrome_trace(std::ostream& os) const TAPO_EXCLUDES(mu_);
  /// One JSON object per line, one line per event.
  void export_jsonl(std::ostream& os) const TAPO_EXCLUDES(mu_);

  /// Drops all buffered events, run labels, and drop counts. Shards are
  /// recycled, not freed, so recording threads re-register lazily.
  void reset() TAPO_EXCLUDES(mu_);

 private:
  struct Shard {
    std::vector<TraceEvent> ring;
    std::size_t cap = 0;         // fixed at creation; ring wraps at cap
    std::size_t head = 0;        // next write position
    std::uint64_t recorded = 0;  // monotone; recorded - size() = dropped
  };

  Tracer() = default;
  Shard* shard_for_this_thread() TAPO_EXCLUDES(mu_);

  // lock-free: recording-path gates — one relaxed load each on the hot
  // path; a stale value only delays an enable/sample-rate change by one
  // event, it never corrupts state.
  std::atomic<bool> enabled_{false};
  std::atomic<unsigned> categories_{kControl | kLifecycle};
  std::atomic<std::uint64_t> sample_every_{1};
  // lock-free: reset() epoch; recording threads compare it (acquire) to
  // invalidate their cached shard pointer. Bumped only under mu_.
  std::atomic<std::uint64_t> epoch_{1};

  /// Guards the shard *registry*; each Shard's contents are owned by the
  /// registering thread until it quiesces (the collect()/export contract).
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ TAPO_GUARDED_BY(mu_);
  std::vector<std::string> run_labels_ TAPO_GUARDED_BY(mu_);  // run id - 1
  std::size_t capacity_ TAPO_GUARDED_BY(mu_) = 1 << 16;
};

/// RAII marker: events recorded by this thread while the scope is alive are
/// attributed to `flow_id` (runner: run_id << 32 | flow_index). Also
/// decides, from the tracer's sampling rate, whether the flow records at
/// all. Scopes nest; the previous attribution is restored on destruction.
class FlowScope {
 public:
  explicit FlowScope(std::uint64_t flow_id);
  ~FlowScope();
  FlowScope(const FlowScope&) = delete;
  FlowScope& operator=(const FlowScope&) = delete;

 private:
  std::uint64_t prev_flow_;
  bool prev_sampled_;
};

namespace detail {
extern thread_local std::uint64_t t_flow;
extern thread_local bool t_flow_sampled;
}  // namespace detail

}  // namespace tapo::telemetry
