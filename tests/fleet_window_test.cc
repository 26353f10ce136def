// WindowAggregator / FleetSnapshot: the merge-determinism contract
// (N shard snapshots collapse to one fleet view bit-identically, for any
// shard grouping and merge order), window bucketing including negative
// logical timestamps, the EWMA regression detector, and the report /
// Prometheus render paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/window.h"
#include "telemetry/registry.h"
#include "util/rng.h"

namespace tapo::fleet {
namespace {

// A deterministic synthetic fleet: records across several shards,
// services, windows and stall causes.
std::vector<FlowRecord> synthetic_fleet(std::uint64_t seed,
                                        std::size_t count) {
  Rng rng(seed);
  std::vector<FlowRecord> out;
  for (std::size_t i = 0; i < count; ++i) {
    FlowRecord r;
    r.shard_id = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
    r.service = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    r.flow_index = i;
    r.start_us = rng.uniform_int(-3, 20) * 30'000'000;  // spans windows < 0
    r.transmission_us = rng.uniform_int(50'000, 4'000'000);
    r.completed = rng.uniform_int(0, 9) != 0;
    r.response_bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    r.unique_bytes = r.response_bytes;
    r.packets = r.response_bytes / 1400 + 1;
    r.data_segments = r.packets;
    const auto stalls = rng.uniform_int(0, 3);
    for (std::int64_t s = 0; s < stalls; ++s) {
      StallEntry e;
      e.cause = static_cast<std::uint8_t>(rng.uniform_int(0, 6));
      e.retrans_cause = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
      e.duration_us = rng.uniform_int(201'000, 2'000'000);
      r.stalls.push_back(e);
      r.stalled_us += e.duration_us;
    }
    r.retrans_segments = static_cast<std::uint64_t>(rng.uniform_int(0, 5));
    r.avg_rtt_us = rng.uniform(10'000.0, 80'000.0);
    r.avg_rto_us = r.avg_rtt_us * 4.0;
    out.push_back(std::move(r));
  }
  return out;
}

FleetSnapshot aggregate_all(const std::vector<FlowRecord>& records,
                            const FleetConfig& cfg) {
  WindowAggregator agg(cfg);
  agg.ingest(records);
  return agg.snapshot();
}

std::string prometheus_dump() {
  std::ostringstream os;
  telemetry::Registry::instance().export_prometheus(os);
  return os.str();
}

TEST(FleetWindow, BucketsOnFloorDivisionIncludingNegativeTime) {
  WindowAggregator agg({.window = Duration::seconds(60)});
  const auto at = [](std::int64_t us) {
    FlowRecord r;
    r.transmission_us = 1'000;
    r.start_us = us;
    return r;
  };
  agg.ingest(at(0));
  agg.ingest(at(59'999'999));
  agg.ingest(at(60'000'000));
  agg.ingest(at(-1));
  agg.ingest(at(-60'000'001));
  const FleetSnapshot& snap = agg.snapshot();
  ASSERT_EQ(snap.windows.size(), 4u);
  EXPECT_EQ(snap.windows.at(0).at(0).flows, 2u);
  EXPECT_EQ(snap.windows.at(1).at(0).flows, 1u);
  EXPECT_EQ(snap.windows.at(-1).at(0).flows, 1u);
  EXPECT_EQ(snap.windows.at(-2).at(0).flows, 1u);
}

TEST(FleetWindow, ConfigValidation) {
  for (const Duration window : {Duration::zero(), Duration::micros(-5)}) {
    const FleetConfig cfg{.window = window};
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << window.us();
    EXPECT_THROW(WindowAggregator{cfg}, std::invalid_argument) << window.us();
  }
  EXPECT_NO_THROW(FleetConfig{}.validate());
}

TEST(FleetWindow, MergeRejectsMismatchedConfigs) {
  const auto records = synthetic_fleet(1, 10);
  auto a = aggregate_all(records, FleetConfig{});
  const auto b = aggregate_all(
      records, FleetConfig{.window = Duration::seconds(30)});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(FleetWindow, MergeIsInvariantToShardGroupingAndOrder) {
  const FleetConfig cfg{.window = Duration::seconds(60)};
  const auto records = synthetic_fleet(42, 600);
  const FleetSnapshot whole = aggregate_all(records, cfg);

  // Split by shard id into 8 per-shard snapshots.
  std::vector<FleetSnapshot> shards;
  for (std::uint32_t s = 0; s < 8; ++s) {
    WindowAggregator agg(cfg);
    for (const FlowRecord& r : records) {
      if (r.shard_id == s) agg.ingest(r);
    }
    shards.push_back(agg.snapshot());
  }

  // Grouping A: fold all 8 in ascending order.
  FleetSnapshot ascending = shards[0];
  for (std::size_t i = 1; i < shards.size(); ++i) ascending.merge(shards[i]);

  // Grouping B: two intermediate groups of 4, folded in reverse.
  FleetSnapshot left = shards[3];
  left.merge(shards[1]);
  left.merge(shards[2]);
  left.merge(shards[0]);
  FleetSnapshot right = shards[7];
  right.merge(shards[5]);
  right.merge(shards[6]);
  right.merge(shards[4]);
  FleetSnapshot grouped = right;
  grouped.merge(left);

  // Grouping C: shuffled pairwise tree.
  Rng rng(99);
  std::vector<FleetSnapshot> pool = shards;
  while (pool.size() > 1) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    FleetSnapshot taken = pool[i];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    pool[j].merge(taken);
  }

  // Bit-identical snapshots...
  EXPECT_EQ(ascending, whole);
  EXPECT_EQ(grouped, whole);
  EXPECT_EQ(pool[0], whole);
  EXPECT_EQ(whole.shard_ids.size(), 8u);

  // ...and byte-identical derived artifacts.
  const std::string report = render_fleet_report(whole);
  EXPECT_EQ(render_fleet_report(ascending), report);
  EXPECT_EQ(render_fleet_report(grouped), report);
  EXPECT_EQ(render_fleet_report(pool[0]), report);

  telemetry::Registry::instance().reset();
  publish_fleet_metrics(whole);
  const std::string prom = prometheus_dump();
  telemetry::Registry::instance().reset();
  publish_fleet_metrics(grouped);
  EXPECT_EQ(prometheus_dump(), prom);
  telemetry::Registry::instance().reset();
  publish_fleet_metrics(pool[0]);
  EXPECT_EQ(prometheus_dump(), prom);
}

TEST(FleetWindow, SnapshotTotalsMatchHandComputedSums) {
  FleetConfig cfg{.window = Duration::seconds(60)};
  const auto records = synthetic_fleet(7, 200);
  const FleetSnapshot snap = aggregate_all(records, cfg);

  std::uint64_t flows = 0;
  std::int64_t stalled = 0;
  for (const auto& [w, services] : snap.windows) {
    (void)w;
    for (const auto& [svc, sw] : services) {
      (void)svc;
      flows += sw.flows;
      stalled += sw.stalled_us;
    }
  }
  std::int64_t expect_stalled = 0;
  for (const FlowRecord& r : records) expect_stalled += r.stalled_us;
  EXPECT_EQ(flows, records.size());
  EXPECT_EQ(snap.records, records.size());
  EXPECT_EQ(stalled, expect_stalled);
}

// Builds one record whose single stall gives the window an exact
// stall-time / transmission-time ratio.
FlowRecord ratio_record(std::int64_t window_idx, std::uint8_t service,
                        std::uint8_t cause, double ratio) {
  FlowRecord r;
  r.service = service;
  r.start_us = window_idx * 60'000'000;
  r.transmission_us = 1'000'000;
  r.completed = true;
  if (ratio > 0.0) {
    StallEntry e;
    e.cause = cause;
    e.duration_us = static_cast<std::int64_t>(ratio * 1e6);
    r.stalled_us = e.duration_us;
    r.stalls.push_back(e);
  }
  return r;
}

TEST(FleetRegression, FlagsSpikeAfterWarmupAndMarksDropsImproved) {
  WindowAggregator agg;
  constexpr std::uint8_t kRetrans = 5;  // StallCause::kRetransmission
  constexpr std::uint8_t kZeroRwnd = 3;
  // Service 0: stable 0.10 ratio, then a spike to 0.60 in window 8.
  for (std::int64_t w = 0; w < 8; ++w) {
    agg.ingest(ratio_record(w, 0, kRetrans, 0.10));
  }
  agg.ingest(ratio_record(8, 0, kRetrans, 0.60));
  // Service 1: stable 0.50, then a mitigation-style drop to 0.02.
  for (std::int64_t w = 0; w < 8; ++w) {
    agg.ingest(ratio_record(w, 1, kZeroRwnd, 0.50));
  }
  agg.ingest(ratio_record(8, 1, kZeroRwnd, 0.02));

  const auto regs = detect_regressions(agg.snapshot());
  ASSERT_EQ(regs.size(), 2u);
  // Output is (window, service, cause)-ordered.
  EXPECT_EQ(regs[0].window_index, 8);
  EXPECT_EQ(regs[0].service, 0);
  EXPECT_EQ(regs[0].cause, kRetrans);
  EXPECT_FALSE(regs[0].improved);
  EXPECT_NEAR(regs[0].ratio, 0.60, 1e-9);
  EXPECT_NEAR(regs[0].baseline, 0.10, 1e-9);
  EXPECT_EQ(regs[1].service, 1);
  EXPECT_EQ(regs[1].cause, kZeroRwnd);
  EXPECT_TRUE(regs[1].improved);
}

TEST(FleetRegression, WarmupSuppressesEarlyDeviations) {
  WindowAggregator agg;
  // Wild swings inside the three warm-up windows must not be flagged.
  agg.ingest(ratio_record(0, 0, 5, 0.05));
  agg.ingest(ratio_record(1, 0, 5, 0.80));
  agg.ingest(ratio_record(2, 0, 5, 0.01));
  EXPECT_TRUE(detect_regressions(agg.snapshot()).empty());
  // The same swing in the fourth window is flagged.
  agg.ingest(ratio_record(3, 0, 5, 0.80));
  const auto regs = detect_regressions(agg.snapshot());
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].window_index, 3);
  EXPECT_FALSE(regs[0].improved);
}

TEST(FleetReport, ContainsSectionsAndServiceNames) {
  const auto records = synthetic_fleet(11, 300);
  const auto snap =
      aggregate_all(records, FleetConfig{.window = Duration::seconds(60)});
  const std::string report = render_fleet_report(snap);
  EXPECT_NE(report.find("TAPO fleet report"), std::string::npos);
  EXPECT_NE(report.find("cloud-storage"), std::string::npos);
  EXPECT_NE(report.find("software-download"), std::string::npos);
  EXPECT_NE(report.find("web-search"), std::string::npos);
  EXPECT_NE(report.find("shards 8"), std::string::npos);

  const std::string empty = render_fleet_report(FleetSnapshot{});
  EXPECT_NE(empty.find("(no records)"), std::string::npos);
}

TEST(FleetMetrics, PublishesExpectedValues) {
  WindowAggregator agg;
  agg.ingest(ratio_record(0, 2, 5, 0.25));
  agg.ingest(ratio_record(0, 2, 5, 0.25));
  agg.ingest(ratio_record(1, 2, 0, 0.0));

  auto& registry = telemetry::Registry::instance();
  registry.reset();
  publish_fleet_metrics(agg.snapshot());

  double flows = -1, stalls = -1, ratio = -1, windows = -1;
  for (const auto& m : registry.snapshot()) {
    const auto has = [&m](const char* k, const char* v) {
      for (const auto& [lk, lv] : m.labels) {
        if (lk == k && lv == v) return true;
      }
      return false;
    };
    if (m.name == "fleet_flows_total" && has("service", "web-search")) {
      flows = m.value;
    } else if (m.name == "fleet_stalls_total" &&
               has("cause", "retransmission")) {
      stalls = m.value;
    } else if (m.name == "fleet_stall_ratio" && has("service", "web-search")) {
      ratio = m.value;
    } else if (m.name == "fleet_windows") {
      windows = m.value;
    }
  }
  EXPECT_EQ(flows, 3.0);
  EXPECT_EQ(stalls, 2.0);
  // 500ms stalled over 3s transmitted.
  EXPECT_NEAR(ratio, 0.5 / 3.0, 1e-12);
  EXPECT_EQ(windows, 2.0);
}

}  // namespace
}  // namespace tapo::fleet
