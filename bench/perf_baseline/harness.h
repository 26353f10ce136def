// Shared pieces of the perf_baseline harness: wall-clock spans recorded
// from outside the library, a global allocation counter, output digests,
// order statistics and the result record every workload returns.
//
// Everything here times or counts calls into the public API of the tapo
// libraries; nothing reaches inside them. Spans and allocation counts are
// only ever recorded from one thread (the traced regions are serial).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

#include "fleet/record.h"
#include "tapo/analyzer.h"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ allocations

/// Starts/stops counting calls to the global operator new (trace.cc
/// replaces it). Off by default, so untimed and untraced code pays one
/// relaxed load per allocation.
void set_alloc_counting(bool on);
/// Allocations counted since the process started.
std::uint64_t allocs_so_far();

// ------------------------------------------------------------ host speed

/// What the reference kernel takes, in seconds, on the reference machine
/// (README.md, "First measured point") when the host is quiet: its fastest
/// runs there take 0.050-0.051 s.
inline constexpr double kReferenceNominalS = 0.050;

/// A fixed CPU and memory kernel that measures how fast the host runs at
/// the moment. It never calls the library, so no change to the library
/// moves it. It runs in a helper process, pinned to the CPU the caller is
/// on, so its memory never counts toward the workload's peak RSS.
class HostReference {
 public:
  HostReference();   // starts the helper (call before starting any thread)
  ~HostReference();  // stops the helper and waits for it
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  /// Runs the kernel once and returns its wall seconds.
  double seconds();

 private:
  int to_helper_ = -1;
  int from_helper_ = -1;
  int pid_ = -1;
};

/// Turns the wall time of samples of work into time at nominal host speed.
/// Each sample is bracketed by two reference runs; the sample's wall time
/// divided by their mean over kReferenceNominalS is its nominal time. On
/// a shared host the speed of every core drifts by 10-20 % over minutes,
/// and the reference drifts with it, so nominal times are much steadier
/// than wall times.
class HostClock {
 public:
  explicit HostClock(HostReference& ref);

  /// Call right before the first of a series of back-to-back samples.
  void begin();
  /// Call right after a sample that took `wall_s`; the next sample of the
  /// series may start right away.
  double nominal(double wall_s);
  /// Median host factor (reference time / nominal) over the samples so far.
  double median_factor() const;

 private:
  HostReference& ref_;
  double before_s_ = 0.0;
  std::vector<double> factors_;
};

// ------------------------------------------------------------------ spans

/// One timed call. `parent` is the index of the enclosing span (-1 for a
/// root); `flow` identifies the request (flow index) the call served.
/// `allocs` is inclusive of child spans.
struct SpanRecord {
  const char* name = "";
  std::int32_t parent = -1;
  std::uint64_t flow = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;
};

/// Per-name totals over a SpanLog. Self time is a span's duration minus
/// the part its direct child spans cover.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t self_allocs = 0;
  std::vector<double> durations_ns;  // one entry per span, in record order
};

/// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  SpanLog();

  std::int32_t open(const char* name, std::uint64_t flow);
  void close(std::int32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> totals() const;

  /// Chrome trace_event JSON ("X" complete events, microsecond stamps).
  void write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null log makes it a no-op, so traced and untraced runs go
/// through the same code.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t flow = 0)
      : log_(log), id_(log != nullptr ? log->open(name, flow) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// ---------------------------------------------------------------- digests

/// FNV-1a over the diagnosis of each flow: its index, every stall's cause,
/// retransmission sub-cause and duration, and its retransmission counts.
/// Two runs that diagnose the same flows the same way get the same digest.
class Digest {
 public:
  void add(std::uint64_t index, const tapo::analysis::FlowAnalysis& fa);
  void add(const tapo::fleet::FlowRecord& r);
  /// A flow that produced no analysis (still counted, by index).
  void add_empty(std::uint64_t index);

  std::string hex() const;

 private:
  void word(std::uint64_t v);

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ------------------------------------------------------------------ misc

/// std::ostream target that drops everything written to it.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
};

double median(std::vector<double> v);

/// First, second and third quartile by Python's
/// statistics.quantiles(v, n=4) ("exclusive" method), so the harness and
/// an external check agree on the spread.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// "%.17g": every digit the double holds.
std::string num(double v);

/// Max resident set size of this process so far, in MiB.
double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports back to the orchestrator.
struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<Metric> metrics;        // the metrics BENCHMARK.json lists
  std::vector<Metric> layers;         // full per-layer table (traced runs)
  std::vector<Metric> notes;          // printed alongside `metrics` only

  /// Records a failed output check; `ops` is how many attempted operations
  /// it accounts for (diverged flows, skipped records, ...), at least one.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1);
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  std::string to_json() const;
};

/// {"name": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace perf
