#include "telemetry/tracer.h"

#include <algorithm>

#include "telemetry/json.h"

namespace tapo::telemetry {

namespace detail {
thread_local std::uint64_t t_flow = 0;
thread_local bool t_flow_sampled = true;
}  // namespace detail

namespace {

/// Thread-local shard cache. The epoch detects Tracer::reset(): stale
/// cached pointers are discarded instead of dereferenced.
struct ShardCache {
  void* shard = nullptr;
  std::uint64_t epoch = 0;
};
thread_local ShardCache t_shard_cache;

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kSegmentTx: return "segment_tx";
    case EventKind::kAckRx: return "ack_rx";
    case EventKind::kRtoFire: return "rto_fire";
    case EventKind::kTlpProbe: return "tlp_probe";
    case EventKind::kSrtoProbe: return "srto_probe";
    case EventKind::kPersistProbe: return "persist_probe";
    case EventKind::kInvariantViolation: return "invariant_violation";
    case EventKind::kCwnd: return "cwnd";
    case EventKind::kCaState: return "ca_state";
    case EventKind::kStallSpan: return "stall";
    case EventKind::kFlowFinalize: return "flow_finalize";
    case EventKind::kFlowEvict: return "flow_evict";
    case EventKind::kFlowTruncate: return "flow_truncate";
    case EventKind::kFlowDone: return "flow_done";
    case EventKind::kRunBegin: return "run_begin";
    case EventKind::kRunEnd: return "run_end";
  }
  return "?";
}

unsigned category_of(EventKind k) {
  switch (k) {
    case EventKind::kSegmentTx:
    case EventKind::kAckRx:
      return kPackets;
    case EventKind::kRtoFire:
    case EventKind::kTlpProbe:
    case EventKind::kSrtoProbe:
    case EventKind::kPersistProbe:
    case EventKind::kInvariantViolation:
    case EventKind::kCwnd:
    case EventKind::kCaState:
    case EventKind::kStallSpan:
      return kControl;
    case EventKind::kFlowFinalize:
    case EventKind::kFlowEvict:
    case EventKind::kFlowTruncate:
    case EventKind::kFlowDone:
    case EventKind::kRunBegin:
    case EventKind::kRunEnd:
      return kLifecycle;
  }
  return kControl;
}

// Mirrors analysis::to_string(StallCause/RetransCause); telemetry_test
// asserts the mirror holds.
const char* stall_cause_name(std::uint8_t cause) {
  switch (cause) {
    case 0: return "data_unavailable";
    case 1: return "resource_constraint";
    case 2: return "client_idle";
    case 3: return "zero_rwnd";
    case 4: return "packet_delay";
    case 5: return "retransmission";
    case 6: return "undetermined";
  }
  return "?";
}

const char* retrans_cause_name(std::uint8_t cause) {
  switch (cause) {
    case 0: return "double_retrans";
    case 1: return "tail_retrans";
    case 2: return "small_cwnd";
    case 3: return "small_rwnd";
    case 4: return "continuous_loss";
    case 5: return "ack_delay_loss";
    case 6: return "undetermined";
    case 7: return "none";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

bool Tracer::should_record(EventKind kind) const {
  if (!enabled()) return false;
  if (!(category_of(kind) & categories())) return false;
  return detail::t_flow_sampled;
}

Tracer::Shard* Tracer::shard_for_this_thread() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (t_shard_cache.shard != nullptr && t_shard_cache.epoch == epoch) {
    return static_cast<Shard*>(t_shard_cache.shard);
  }
  util::MutexLock lock(mu_);
  auto shard = std::make_unique<Shard>();
  shard->ring.reserve(kShardCapacity);
  Shard* raw = shard.get();
  shards_.push_back(std::move(shard));
  t_shard_cache = {raw, epoch};
  return raw;
}

void Tracer::record(EventKind kind, std::int64_t ts_us, std::uint64_t a,
                    std::uint64_t b) {
  if (!should_record(kind)) return;
  Shard* shard = shard_for_this_thread();
  TraceEvent ev;
  ev.ts_us = ts_us;
  ev.flow = detail::t_flow;
  ev.a = a;
  ev.b = b;
  ev.kind = kind;
  if (shard->ring.size() < kShardCapacity) {
    shard->ring.push_back(ev);
  } else {
    shard->ring[shard->head] = ev;  // wrap: overwrite the oldest
  }
  shard->head = (shard->head + 1) % kShardCapacity;
  ++shard->recorded;
}

std::uint32_t Tracer::begin_run(const std::string& label) {
  util::MutexLock lock(mu_);
  run_labels_.push_back(label);
  return static_cast<std::uint32_t>(run_labels_.size());
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> all;
  {
    util::MutexLock lock(mu_);
    for (const auto& shard : shards_) {
      all.insert(all.end(), shard->ring.begin(), shard->ring.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const TraceEvent& x, const TraceEvent& y) {
    if (x.flow != y.flow) return x.flow < y.flow;
    return x.ts_us < y.ts_us;
  });
  return all;
}

std::uint64_t Tracer::dropped() const {
  util::MutexLock lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& shard : shards_) {
    dropped += shard->recorded - shard->ring.size();
  }
  return dropped;
}

void Tracer::reset() {
  util::MutexLock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  shards_.clear();
  run_labels_.clear();
}

namespace {

std::uint32_t run_of(const TraceEvent& ev) {
  return static_cast<std::uint32_t>(ev.flow >> 32);
}
std::uint32_t index_of(const TraceEvent& ev) {
  return static_cast<std::uint32_t>(ev.flow & 0xffffffffu);
}

/// Decoded kStallSpan payload (see events.h for the packing).
struct StallFields {
  std::uint8_t cause, retrans_cause, state;
  bool f_double;
  std::uint32_t in_flight;
};
StallFields decode_stall(const TraceEvent& ev) {
  return {static_cast<std::uint8_t>(ev.b & 0xff),
          static_cast<std::uint8_t>((ev.b >> 8) & 0xff),
          static_cast<std::uint8_t>((ev.b >> 16) & 0xff),
          ((ev.b >> 24) & 0x1) != 0,
          static_cast<std::uint32_t>(ev.b >> 32)};
}

std::string stall_span_name(const TraceEvent& ev) {
  const StallFields f = decode_stall(ev);
  std::string name = "stall:";
  name += stall_cause_name(f.cause);
  if (stall_cause_name(f.cause) == std::string("retransmission")) {
    name += "/";
    name += retrans_cause_name(f.retrans_cause);
  }
  return name;
}

}  // namespace

void Tracer::export_chrome_trace(std::ostream& os) const {
  const auto events = collect();
  std::vector<std::string> labels;
  {
    util::MutexLock lock(mu_);
    labels = run_labels_;
  }
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& body) {
    if (!first) os << ",";
    first = false;
    os << "\n" << body;
  };
  for (std::size_t r = 0; r < labels.size(); ++r) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(r + 1) + ",\"tid\":0,\"args\":{\"name\":" +
         json_quote(labels[r]) + "}}");
  }
  for (const TraceEvent& ev : events) {
    const std::string pid = std::to_string(run_of(ev));
    const std::string tid = std::to_string(index_of(ev));
    const std::string ts = std::to_string(ev.ts_us);
    switch (ev.kind) {
      case EventKind::kStallSpan: {
        const StallFields f = decode_stall(ev);
        emit("{\"name\":" + json_quote(stall_span_name(ev)) +
             ",\"cat\":\"stall\",\"ph\":\"X\",\"ts\":" + ts +
             ",\"dur\":" + std::to_string(ev.a) + ",\"pid\":" + pid +
             ",\"tid\":" + tid + ",\"args\":{\"cause\":" +
             json_quote(stall_cause_name(f.cause)) + ",\"retrans_cause\":" +
             json_quote(retrans_cause_name(f.retrans_cause)) +
             ",\"in_flight\":" + std::to_string(f.in_flight) +
             ",\"f_double\":" + (f.f_double ? "true" : "false") + "}}");
        break;
      }
      case EventKind::kCwnd:
        // Counter track per flow: cwnd/ssthresh plotted over sim time.
        emit("{\"name\":\"cwnd[f" + tid + "]\",\"ph\":\"C\",\"ts\":" + ts +
             ",\"pid\":" + pid + ",\"tid\":" + tid +
             ",\"args\":{\"cwnd\":" + std::to_string(ev.a) +
             ",\"ssthresh\":" + std::to_string(ev.b) + "}}");
        break;
      default:
        emit("{\"name\":" + json_quote(to_string(ev.kind)) +
             ",\"cat\":\"tapo\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts +
             ",\"pid\":" + pid + ",\"tid\":" + tid +
             ",\"args\":{\"a\":" + std::to_string(ev.a) +
             ",\"b\":" + std::to_string(ev.b) + "}}");
        break;
    }
  }
  os << "\n]}\n";
}

void Tracer::export_jsonl(std::ostream& os) const {
  for (const TraceEvent& ev : collect()) {
    os << "{\"kind\":" << json_quote(to_string(ev.kind))
       << ",\"run\":" << run_of(ev) << ",\"flow\":" << index_of(ev)
       << ",\"ts_us\":" << ev.ts_us;
    if (ev.kind == EventKind::kStallSpan) {
      const StallFields f = decode_stall(ev);
      os << ",\"dur_us\":" << ev.a
         << ",\"cause\":" << json_quote(stall_cause_name(f.cause))
         << ",\"retrans_cause\":" << json_quote(retrans_cause_name(f.retrans_cause))
         << ",\"in_flight\":" << f.in_flight;
    } else {
      os << ",\"a\":" << ev.a << ",\"b\":" << ev.b;
    }
    os << "}\n";
  }
}

FlowScope::FlowScope(std::uint64_t flow_id)
    : prev_flow_(detail::t_flow), prev_sampled_(detail::t_flow_sampled) {
  detail::t_flow = flow_id;
  const std::uint64_t every = Tracer::instance().sample_every();
  detail::t_flow_sampled = (flow_id & 0xffffffffu) % every == 0;
}

FlowScope::~FlowScope() {
  detail::t_flow = prev_flow_;
  detail::t_flow_sampled = prev_sampled_;
}

}  // namespace tapo::telemetry
