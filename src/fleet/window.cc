#include "fleet/window.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.h"
#include "util/strings.h"

namespace tapo::fleet {

namespace {

/// Floor division (window indices for negative logical timestamps must
/// round toward -inf, like util::floor_to).
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if (a % b != 0 && (a < 0) != (b < 0)) --q;
  return q;
}

double ratio_of(std::int64_t part, std::int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

// Regression watch: the EWMA weight of the newest window's ratio; a ratio
// is flagged when |ratio - baseline| > max(kAbsFloor, kRelThreshold *
// baseline), once kWarmupWindows windows of its {service, cause} are seen.
constexpr double kEwmaAlpha = 0.3;
constexpr double kRelThreshold = 0.5;
constexpr double kAbsFloor = 0.02;
constexpr std::size_t kWarmupWindows = 3;

/// Windows in the report's recent-window timeline.
constexpr std::size_t kRecentWindows = 8;

}  // namespace

std::string service_name(std::uint8_t s) {
  switch (s) {
    case 0: return "cloud-storage";
    case 1: return "software-download";
    case 2: return "web-search";
    default: return "service-" + std::to_string(s);
  }
}

// ----------------------------------------------------------- FleetConfig

void FleetConfig::validate() const {
  if (window <= Duration::zero()) {
    throw std::invalid_argument("FleetConfig: window must be > 0");
  }
}

// ------------------------------------------------------------ aggregates

void CauseCell::merge(const CauseCell& other) {
  stall_count += other.stall_count;
  stalled_us += other.stalled_us;
  stall_us.merge(other.stall_us);
}

void ServiceWindow::add(const FlowRecord& r) {
  ++flows;
  if (r.completed) ++completed;
  if (!r.stalls.empty()) ++stalled_flows;
  if (r.degraded) ++degraded_flows;
  transmission_us += r.transmission_us;
  stalled_us += r.stalled_us;
  unique_bytes += r.unique_bytes;
  data_segments += r.data_segments;
  retrans_segments += r.retrans_segments;
  completion_us.observe(static_cast<double>(r.transmission_us));
  for (const StallEntry& s : r.stalls) {
    CauseCell& cell = by_cause[s.cause];  // reader bounds-checked cause < 7
    ++cell.stall_count;
    cell.stalled_us += s.duration_us;
    cell.stall_us.observe(static_cast<double>(s.duration_us));
  }
}

void ServiceWindow::merge(const ServiceWindow& other) {
  flows += other.flows;
  completed += other.completed;
  stalled_flows += other.stalled_flows;
  degraded_flows += other.degraded_flows;
  transmission_us += other.transmission_us;
  stalled_us += other.stalled_us;
  unique_bytes += other.unique_bytes;
  data_segments += other.data_segments;
  retrans_segments += other.retrans_segments;
  completion_us.merge(other.completion_us);
  for (std::size_t c = 0; c < by_cause.size(); ++c) {
    by_cause[c].merge(other.by_cause[c]);
  }
}

double ServiceWindow::stall_ratio() const {
  return ratio_of(stalled_us, transmission_us);
}

double ServiceWindow::cause_ratio(std::size_t cause) const {
  return ratio_of(by_cause[cause].stalled_us, transmission_us);
}

void FleetSnapshot::merge(const FleetSnapshot& other) {
  if (window_us != other.window_us) {
    throw std::invalid_argument("FleetSnapshot::merge: mismatched window width");
  }
  records += other.records;
  shard_ids.insert(other.shard_ids.begin(), other.shard_ids.end());
  for (const auto& [w, services] : other.windows) {
    auto& mine = windows[w];
    for (const auto& [svc, sw] : services) mine[svc].merge(sw);
  }
}

WindowAggregator::WindowAggregator(FleetConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  snap_.window_us = cfg_.window.us();
}

void WindowAggregator::ingest(const FlowRecord& r) {
  const std::int64_t w = floor_div(r.start_us, snap_.window_us);
  snap_.windows[w][r.service].add(r);
  ++snap_.records;
  snap_.shard_ids.insert(r.shard_id);
}

void WindowAggregator::ingest(std::span<const FlowRecord> records) {
  for (const FlowRecord& r : records) ingest(r);
}

// ------------------------------------------------------------ regressions

std::vector<Regression> detect_regressions(const FleetSnapshot& snap) {
  // Track one EWMA per {service, cause}. Windows are visited in ascending
  // map order, so the baseline evolution is the same no matter how the
  // snapshot was merged together.
  struct Track {
    double ewma = 0.0;
    std::size_t seen = 0;
  };
  std::map<std::pair<std::uint8_t, std::uint8_t>, Track> tracks;
  std::vector<Regression> out;
  for (const auto& [w, services] : snap.windows) {
    for (const auto& [svc, sw] : services) {
      for (std::size_t c = 0; c < sw.by_cause.size(); ++c) {
        const double ratio = sw.cause_ratio(c);
        Track& t = tracks[{svc, static_cast<std::uint8_t>(c)}];
        if (t.seen >= kWarmupWindows) {
          const double dev = ratio - t.ewma;
          const double bound = std::max(kAbsFloor, kRelThreshold * t.ewma);
          if (dev > bound || -dev > bound) {
            out.push_back({w, svc, static_cast<std::uint8_t>(c), ratio,
                           t.ewma, dev < 0.0});
          }
        }
        t.ewma = t.seen == 0
                     ? ratio
                     : kEwmaAlpha * ratio + (1.0 - kEwmaAlpha) * t.ewma;
        ++t.seen;
      }
    }
  }
  // Map iteration is already (window, service, cause)-ordered; keep it.
  return out;
}

// ----------------------------------------------------------------- report

std::string render_fleet_report(const FleetSnapshot& snap) {
  std::string out;
  const auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };

  line("=== TAPO fleet report ===");
  line(str_format(
      "records %llu | shards %zu | windows %zu x %llds | sketch alpha %.3f",
      static_cast<unsigned long long>(snap.records), snap.shard_ids.size(),
      snap.windows.size(), static_cast<long long>(snap.window_us / 1'000'000),
      stats::QuantileSketch::kAlpha));
  if (snap.records == 0) {
    line("(no records)");
    return out;
  }

  // Fleet-wide per-service totals: fold every window into one aggregate.
  std::map<std::uint8_t, ServiceWindow> totals;
  for (const auto& [w, services] : snap.windows) {
    (void)w;
    for (const auto& [svc, sw] : services) totals[svc].merge(sw);
  }

  line("");
  line(str_format("%-19s %8s %7s %7s %8s %10s %10s", "service", "flows",
                  "compl%", "stall%", "retrans%", "p50-compl", "p99-compl"));
  for (const auto& [svc, t] : totals) {
    const double complp =
        t.flows ? 100.0 * static_cast<double>(t.completed) /
                      static_cast<double>(t.flows)
                : 0.0;
    const double retransp =
        t.data_segments ? 100.0 * static_cast<double>(t.retrans_segments) /
                              static_cast<double>(t.data_segments)
                        : 0.0;
    line(str_format("%-19s %8llu %7.1f %7.2f %8.2f %9.3fs %9.3fs",
                    service_name(svc).c_str(),
                    static_cast<unsigned long long>(t.flows), complp,
                    100.0 * t.stall_ratio(), retransp,
                    t.completion_us.quantile(0.5) / 1e6,
                    t.completion_us.quantile(0.99) / 1e6));
  }

  line("");
  line(str_format("%-19s %-19s %8s %9s %7s %9s %9s", "service", "cause",
                  "stalls", "time(s)", "time%", "p50(ms)", "p99(ms)"));
  for (const auto& [svc, t] : totals) {
    for (std::size_t c = 0; c < t.by_cause.size(); ++c) {
      const CauseCell& cell = t.by_cause[c];
      if (cell.stall_count == 0) continue;
      line(str_format(
          "%-19s %-19s %8llu %9.2f %7.2f %9.1f %9.1f",
          service_name(svc).c_str(),
          analysis::to_string(static_cast<analysis::StallCause>(c)),
          static_cast<unsigned long long>(cell.stall_count),
          static_cast<double>(cell.stalled_us) / 1e6,
          100.0 * t.cause_ratio(c), cell.stall_us.quantile(0.5) / 1e3,
          cell.stall_us.quantile(0.99) / 1e3));
    }
  }

  // Recent-window timeline: per-service stall ratio over the last K
  // windows, newest last.
  const std::set<std::uint8_t> all_services = [&] {
    std::set<std::uint8_t> s;
    for (const auto& [svc, t] : totals) {
      (void)t;
      s.insert(svc);
    }
    return s;
  }();
  line("");
  std::string head = str_format("%-14s", "window");
  for (const std::uint8_t svc : all_services) {
    head += str_format(" %18s", service_name(svc).c_str());
  }
  line(head + "  (stall%)");
  std::vector<std::int64_t> windexes;
  windexes.reserve(snap.windows.size());
  for (const auto& [w, services] : snap.windows) {
    (void)services;
    windexes.push_back(w);
  }
  const std::size_t first =
      windexes.size() > kRecentWindows ? windexes.size() - kRecentWindows : 0;
  for (std::size_t i = first; i < windexes.size(); ++i) {
    const std::int64_t w = windexes[i];
    const auto& services = snap.windows.at(w);
    std::string row =
        str_format("t=%-12lld", static_cast<long long>(
                                    w * (snap.window_us / 1'000'000)));
    for (const std::uint8_t svc : all_services) {
      const auto it = services.find(svc);
      if (it == services.end()) {
        row += str_format(" %18s", "-");
      } else {
        row += str_format(" %18.2f", 100.0 * it->second.stall_ratio());
      }
    }
    line(row);
  }

  line("");
  const auto regressions = detect_regressions(snap);
  if (regressions.empty()) {
    line("regression watch: clean (no window broke from its EWMA baseline)");
  } else {
    line(str_format("regression watch: %zu flagged window(s)",
                    regressions.size()));
    for (const Regression& r : regressions) {
      line(str_format(
          "  [t=%lld] %s / %s: ratio %.2f%% vs baseline %.2f%% -> %s",
          static_cast<long long>(r.window_index *
                                 (snap.window_us / 1'000'000)),
          service_name(r.service).c_str(),
          analysis::to_string(static_cast<analysis::StallCause>(r.cause)),
          100.0 * r.ratio, 100.0 * r.baseline,
          r.improved ? "IMPROVED" : "REGRESSED"));
    }
  }
  return out;
}

// ----------------------------------------------------------- prometheus

void publish_fleet_metrics(const FleetSnapshot& snap) {
  auto& registry = telemetry::Registry::instance();

  std::map<std::uint8_t, ServiceWindow> totals;
  for (const auto& [w, services] : snap.windows) {
    (void)w;
    for (const auto& [svc, sw] : services) totals[svc].merge(sw);
  }

  registry.counter("fleet_records_ingested_total")
      .add(snap.records);
  registry.gauge("fleet_windows")
      .set(static_cast<double>(snap.windows.size()));
  registry.gauge("fleet_shards")
      .set(static_cast<double>(snap.shard_ids.size()));

  for (const auto& [svc, t] : totals) {
    const std::string svc_name = service_name(svc);
    registry.counter("fleet_flows_total", {{"service", svc_name}})
        .add(t.flows);
    registry.gauge("fleet_stall_ratio", {{"service", svc_name}})
        .set(t.stall_ratio());
    for (const char* q : {"0.5", "0.99"}) {
      registry
          .gauge("fleet_completion_us",
                 {{"service", svc_name}, {"quantile", q}})
          .set(t.completion_us.quantile(q[2] == '5' ? 0.5 : 0.99));
    }
    for (std::size_t c = 0; c < t.by_cause.size(); ++c) {
      const CauseCell& cell = t.by_cause[c];
      if (cell.stall_count == 0) continue;
      const std::string cause =
          analysis::to_string(static_cast<analysis::StallCause>(c));
      registry
          .counter("fleet_stalls_total",
                   {{"service", svc_name}, {"cause", cause}})
          .add(cell.stall_count);
      registry
          .counter("fleet_stalled_us_total",
                   {{"service", svc_name}, {"cause", cause}})
          .add(static_cast<std::uint64_t>(cell.stalled_us));
      registry
          .gauge("fleet_stall_us", {{"service", svc_name},
                                    {"cause", cause},
                                    {"quantile", "0.5"}})
          .set(cell.stall_us.quantile(0.5));
      registry
          .gauge("fleet_stall_us", {{"service", svc_name},
                                    {"cause", cause},
                                    {"quantile", "0.99"}})
          .set(cell.stall_us.quantile(0.99));
    }
  }
  registry.gauge("fleet_regressions")
      .set(static_cast<double>(detect_regressions(snap).size()));
}

}  // namespace tapo::fleet
