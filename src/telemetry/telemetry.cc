#include "telemetry/telemetry.h"

namespace tapo::telemetry {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void enable_all() {
  set_metrics_enabled(true);
  Tracer::instance().set_enabled(true);
}

void disable_and_reset_all() {
  set_metrics_enabled(false);
  Tracer::instance().set_enabled(false);
  Tracer::instance().reset();
  Registry::instance().reset();
}

}  // namespace tapo::telemetry
