// Telemetry subsystem entry point: event tracing + metrics registry.
//
// Instrumented layers (sim, tcp, tapo, workload, bench) include only this
// header. A run-time gate keeps the cost near zero when telemetry is off:
// both the tracer and the metrics side start DISABLED and cost one relaxed
// atomic load + branch per site until enable_all() (or the bench
// --telemetry-out flag / TAPO_TELEMETRY_OUT env var) turns them on. A
// TAPO_TRACE site evaluates its arguments only while tracing is on.
//
// Instrumentation idioms:
//
//   TAPO_TRACE(EventKind::kRtoFire, now_us, rto_us, packets_out);
//
//   if (tapo::telemetry::metrics_enabled()) {
//     static auto& c = tapo::telemetry::Registry::instance().counter(
//         "tapo_tcp_rto_fires_total");
//     c.add(1);
//   }
//
// The function-local static caches the registry lookup; the reference
// stays valid forever (Registry::reset zeroes, never deletes).
#pragma once

#include "telemetry/events.h"
#include "telemetry/registry.h"
#include "telemetry/tracer.h"

namespace tapo::telemetry {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

inline bool tracing_enabled() { return Tracer::instance().enabled(); }

void set_metrics_enabled(bool on);

/// Turns on both tracing and metrics (bench --telemetry-out path).
void enable_all();
/// Turns both off and clears all buffered events and metric values.
void disable_and_reset_all();

}  // namespace tapo::telemetry

#define TAPO_TRACE(kind, ts_us, a, b)                                     \
  do {                                                                    \
    if (tapo::telemetry::tracing_enabled()) {                             \
      tapo::telemetry::Tracer::instance().record((kind), (ts_us), (a), (b)); \
    }                                                                     \
  } while (0)
