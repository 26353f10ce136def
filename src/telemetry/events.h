// Typed trace-event vocabulary for the telemetry tracer.
//
// Events are small PODs so the per-thread ring buffers stay cache-friendly:
// a kind, a timestamp on the simulation/capture timeline, the flow the event
// belongs to, and two generic payload words whose meaning depends on the
// kind (documented per enumerator). Exporters decode the payload into
// Chrome-trace / JSONL fields.
#pragma once

#include <cstdint>

namespace tapo::telemetry {

enum class EventKind : std::uint8_t {
  // -- packet-level (category kPackets; high volume, off by default) --
  kSegmentTx,    // a = seq, b = len | (retrans ? 1ull << 63 : 0)
  kAckRx,        // a = ack, b = rwnd bytes
  // -- TCP control plane (category kControl) --
  kRtoFire,      // a = backed-off RTO in us, b = packets_out
  kTlpProbe,     // a = PTO in us
  kSrtoProbe,    // a = probe seq, b = cwnd after conditional halving
  kPersistProbe, // a = probe seq
  kInvariantViolation,  // a = tcp::InvariantKind, b = seq
  kCwnd,         // a = cwnd segments, b = ssthresh segments
  kCaState,      // a = tcp::CaState
  // -- analyzer (category kControl) --
  // a = duration us; b = StallCause | RetransCause << 8 | state << 16 |
  //     f_double << 24 | in_flight << 32
  kStallSpan,
  // -- flow / run lifecycle (category kLifecycle) --
  kFlowFinalize, // live analyzer finalized a flow; a = packets buffered
  kFlowEvict,    // live analyzer budget eviction (finalize follows);
                 // a = resident bytes, b = budget limit bytes
  kFlowDone,     // runner finished a flow; a = sim packets, b = completed
  kRunBegin,     // a = flows in the run
  kRunEnd,       // a = flows emitted
};

/// Category bits for runtime filtering (Tracer::set_categories).
enum Category : unsigned {
  kPackets = 1u << 0,
  kControl = 1u << 1,
  kLifecycle = 1u << 2,
};

const char* to_string(EventKind k);
unsigned category_of(EventKind k);

/// Names for the cause bytes packed into kStallSpan's payload. Kept here so
/// the exporter needs no dependency on tapo_core; telemetry_test asserts
/// they match analysis::to_string enumerator for enumerator.
const char* stall_cause_name(std::uint8_t cause);
const char* retrans_cause_name(std::uint8_t cause);

struct TraceEvent {
  std::int64_t ts_us = 0;   // simulation / capture timeline
  std::uint64_t flow = 0;   // run_id << 32 | flow_index
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  EventKind kind = EventKind::kFlowDone;
};

}  // namespace tapo::telemetry
