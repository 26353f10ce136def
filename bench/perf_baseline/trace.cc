#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>

#include "harness.h"
#include "telemetry/json.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Counting is switched on only around traced
// regions, which run on one thread; the flag load is all other code pays.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) noexcept {
  // tapo-lint: allow(relaxed-atomic) — flag read on every allocation
  if (g_counting.load(std::memory_order_relaxed)) {
    // tapo-lint: allow(relaxed-atomic) — single-thread traced region
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}

void* counted_alloc(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every non-aligned form is replaced, so whatever allocates (including the
// nothrow form std::stable_sort's buffer uses) frees through the same heap.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perf {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_seq_cst);
}

std::uint64_t allocs_so_far() {
  // tapo-lint: allow(relaxed-atomic) — read on the counting thread itself
  return g_allocs.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------------ spans

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::int32_t SpanLog::open(const char* name, std::uint64_t flow) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.flow = flow;
  rec.allocs = allocs_so_far();
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - origin_)
                     .count();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(rec);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  SpanRecord& rec = spans_[static_cast<std::size_t>(id)];
  rec.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  rec.allocs = allocs_so_far() - rec.allocs;
  stack_.pop_back();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child_ns[p] += static_cast<double>(s.end_ns - s.start_ns);
    child_allocs[p] += s.allocs;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.allocs += s.allocs;
    t.self_allocs += s.allocs - child_allocs[i];
    t.durations_ns.push_back(dur);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& workload) const {
  // Enough for every span of a pcap_* pass or thousands of replayed
  // flows, small enough for chrome://tracing to load; the totals in
  // layers.json cover every span either way.
  constexpr std::size_t kMaxWritten = 200'000;
  const std::size_t written = std::min(spans_.size(), kMaxWritten);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
      << tapo::telemetry::json_quote(workload)
      << ",\"spans_total\":" << spans_.size()
      << ",\"spans_written\":" << written << "},\"traceEvents\":[\n";
  char line[256];
  for (std::size_t i = 0; i < written; ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"flow\":%llu,"
                  "\"parent\":%d,\"allocs\":%llu}}\n",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.flow), s.parent,
                  static_cast<unsigned long long>(s.allocs));
    out << line;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

// ---------------------------------------------------------------- digests

void Digest::word(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(std::uint64_t index,
                 const tapo::analysis::FlowAnalysis& fa) {
  word(index);
  word(fa.stalls.size());
  for (const auto& s : fa.stalls) {
    word(static_cast<std::uint64_t>(s.cause));
    word(static_cast<std::uint64_t>(s.retrans_cause));
    word(static_cast<std::uint64_t>(s.duration.us()));
  }
  word(fa.retrans_segments);
  word(fa.timeout_retrans);
  word(fa.fast_retrans);
  word(fa.spurious_retrans);
}

void Digest::add(const tapo::fleet::FlowRecord& r) {
  word(r.flow_index);
  word(r.stalls.size());
  for (const auto& s : r.stalls) {
    word(s.cause);
    word(s.retrans_cause);
    word(static_cast<std::uint64_t>(s.duration_us));
  }
  word(r.retrans_segments);
  word(r.timeout_retrans);
  word(r.fast_retrans);
  word(r.spurious_retrans);
}

void Digest::add_empty(std::uint64_t index) {
  word(index);
  word(~0ull);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ------------------------------------------------------------------ misc

DiscardBuf::int_type DiscardBuf::overflow(int_type c) {
  return traits_type::not_eof(c);
}

std::streamsize DiscardBuf::xsputn(const char*, std::streamsize n) {
  return n;
}

double median(std::vector<double> v) { return quartiles(std::move(v)).q2; }

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1 points, clamped.
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * (n + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void WorkloadResult::check(bool ok, const std::string& what,
                           std::uint64_t ops) {
  if (ok) return;
  correct = false;
  failed += std::max<std::uint64_t>(ops, 1);
  failures.push_back(what);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out += ", ";
    out += tapo::telemetry::json_quote(m.name) + ": {\"value\": " +
           num(m.value) +
           ", \"unit\": " + tapo::telemetry::json_quote(m.unit) + "}";
  }
  return out + "}";
}

std::string WorkloadResult::to_json() const {
  std::string fails = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i != 0) fails += ", ";
    fails += tapo::telemetry::json_quote(failures[i]);
  }
  fails += "]";
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"digest\": " + tapo::telemetry::json_quote(digest) +
         ", \"failures\": " + fails +
         ", \"metrics\": " + metrics_json(metrics) +
         ", \"layers\": " + metrics_json(layers) +
         ", \"notes\": " + metrics_json(notes) + "}";
}

}  // namespace perf
