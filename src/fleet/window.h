// Rolling time-window aggregation of fleet flow records, keyed by
// {service, stall cause}, with snapshot/merge so N shard snapshots
// collapse to one fleet view.
//
// Merge determinism contract (DESIGN.md §13): a FleetSnapshot is a pure
// function of the *set* of records it absorbed. All aggregate state is
// integer counters, integer microsecond sums, ordered maps, and integer-
// count quantile sketches, so merge() is exactly associative and
// commutative; the derived doubles (ratios, quantile estimates, EWMA
// baselines) are computed only at render/publish time from those
// integers, in a fixed iteration order. Consequence: merging the same
// shard record files in any order, with any intermediate grouping (1, 2,
// or 8 shards per partial), yields a byte-identical ASCII report and
// bit-identical Prometheus metric values — gated by bench/fleet_scale.cc
// and tests/fleet_window_test.cc.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "fleet/record.h"
#include "stats/sketch.h"
#include "tapo/analyzer.h"
#include "util/time.h"

namespace tapo::fleet {

/// Human-readable name for a FlowRecord::service index (matches the
/// workload::Service order; unknown indices render as "service-N").
std::string service_name(std::uint8_t s);

struct FleetConfig {
  /// Window width for the rolling aggregation (> 0).
  Duration window = Duration::seconds(60);

  /// Throws std::invalid_argument on a non-positive window. Called by the
  /// WindowAggregator constructor.
  void validate() const;
};

/// Per-{window, service, cause} cell: stall count, stalled time, and the
/// distribution of individual stall durations.
struct CauseCell {
  std::uint64_t stall_count = 0;
  std::int64_t stalled_us = 0;
  stats::QuantileSketch stall_us;

  void merge(const CauseCell& other);
  bool operator==(const CauseCell&) const = default;
};

/// Per-{window, service} aggregate over the flows that *started* in the
/// window.
struct ServiceWindow {
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t stalled_flows = 0;
  std::uint64_t degraded_flows = 0;
  std::int64_t transmission_us = 0;
  std::int64_t stalled_us = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t data_segments = 0;
  std::uint64_t retrans_segments = 0;
  stats::QuantileSketch completion_us;
  std::array<CauseCell, analysis::kNumStallCauses> by_cause;

  void add(const FlowRecord& r);
  void merge(const ServiceWindow& other);

  /// Stalled time / transmission time over the window (0 when idle).
  double stall_ratio() const;
  /// One cause's share of the window's transmission time.
  double cause_ratio(std::size_t cause) const;

  bool operator==(const ServiceWindow&) const = default;
};

/// Mergeable fleet view: windows[window_index][service]. Window index w
/// covers logical time [w * window_us, (w + 1) * window_us).
struct FleetSnapshot {
  std::int64_t window_us = Duration::seconds(60).us();
  std::uint64_t records = 0;
  /// Distinct shard ids observed (content-derived, so it is invariant to
  /// how the shards were grouped before merging).
  std::set<std::uint32_t> shard_ids;
  std::map<std::int64_t, std::map<std::uint8_t, ServiceWindow>> windows;

  /// Folds `other` in. Throws std::invalid_argument when the two
  /// snapshots were built with different window widths (merging those
  /// would silently misbucket).
  void merge(const FleetSnapshot& other);

  bool operator==(const FleetSnapshot&) const = default;
};

class WindowAggregator {
 public:
  /// Validates the config (std::invalid_argument on a bad one).
  explicit WindowAggregator(FleetConfig cfg = {});

  void ingest(const FlowRecord& r);
  void ingest(std::span<const FlowRecord> records);

  const FleetSnapshot& snapshot() const { return snap_; }
  const FleetConfig& config() const { return cfg_; }

 private:
  FleetConfig cfg_;
  FleetSnapshot snap_;
};

// ------------------------------------------------------- regression watch

/// One flagged window: a per-cause stall ratio that broke away from its
/// EWMA baseline. `improved` answers the paper's Tables 8-9 question
/// ("mitigation deployed — did stalls drop?") in the negative-deviation
/// direction.
struct Regression {
  std::int64_t window_index = 0;
  std::uint8_t service = 0;
  std::uint8_t cause = 0;
  double ratio = 0.0;
  double baseline = 0.0;
  bool improved = false;
};

/// Scans windows in ascending time order per {service, cause} and flags
/// deviations from the EWMA baseline: after 3 warm-up windows, a ratio
/// further than max(0.02, 0.5 * baseline) from a baseline that weighs
/// each new window 0.3. Deterministic: output depends only on the
/// snapshot's content, sorted by (window, service, cause).
std::vector<Regression> detect_regressions(const FleetSnapshot& snap);

// ----------------------------------------------------------- fleet report

/// Renders the ASCII fleet report (service totals, per-cause breakdown
/// with sketch quantiles, the last eight windows' timeline, and the
/// regression watch). Byte-identical for any merge order/grouping of the
/// same records.
std::string render_fleet_report(const FleetSnapshot& snap);

/// Publishes the snapshot into the telemetry registry:
///   fleet_flows_total{service}            counter
///   fleet_records_ingested_total          counter
///   fleet_stalls_total{service,cause}     counter
///   fleet_stalled_us_total{service,cause} counter
///   fleet_stall_ratio{service}            gauge
///   fleet_completion_us{service,quantile} gauge (p50/p99)
///   fleet_stall_us{service,cause,quantile} gauge (p50/p99)
///   fleet_windows / fleet_shards / fleet_regressions gauges
/// Counters accumulate across calls: callers republishing the same fleet
/// view (tapo_agg, fleet_scale) must Registry::reset() first.
void publish_fleet_metrics(const FleetSnapshot& snap);

}  // namespace tapo::fleet
