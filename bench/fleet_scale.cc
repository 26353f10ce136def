// Fleet-aggregation scale harness: N simulated server shards each emit a
// binary flow-record stream; the streams are parsed and folded into one
// fleet view. Two hard gates (exit code 1 on violation):
//
//   * Merge determinism: folding the per-shard snapshots sequentially, in
//     groups of 2, in groups of 4, and in a seeded-shuffle order must all
//     yield a byte-identical ASCII fleet report and an identical
//     Prometheus exposition — the DESIGN.md §13 contract.
//   * Ingest throughput: parsing + windowing the shard streams must
//     sustain at least kMinRecordsPerSec records/s (a deliberately
//     conservative floor so sanitizer builds pass; a native build is
//     orders of magnitude above it).
//
// Shard emission is also re-run for shard 0 to check writer determinism:
// the same config and seed must produce byte-identical record streams.
//
// Knobs: TAPO_BENCH_FLOWS (flows per service per shard),
// TAPO_BENCH_THREADS.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "fleet/record.h"
#include "fleet/record_sink.h"
#include "fleet/window.h"
#include "telemetry/registry.h"
#include "util/rng.h"

using namespace tapo;
using namespace tapo::bench;

namespace {

/// Simulated server shards emitting record streams.
constexpr std::size_t kShards = 4;

/// Conservative floor: TSan slows parsing ~10x and the ctest invocation
/// runs with small flow counts, so this is far below a native build's rate.
constexpr double kMinRecordsPerSec = 10'000.0;

/// Narrow windows so even small TAPO_BENCH_FLOWS runs span several.
const fleet::FleetConfig kFleetConfig{.window = Duration::seconds(10)};

/// Emits one shard's record stream: all three services, flows stamped at a
/// steady logical rate, shards staggered so their windows interleave.
std::string emit_shard(std::uint32_t shard, std::size_t flows) {
  std::ostringstream os;
  fleet::RecordWriter writer(os);
  for (auto svc : {workload::Service::kCloudStorage,
                   workload::Service::kSoftwareDownload,
                   workload::Service::kWebSearch}) {
    const workload::ExperimentConfig cfg{.profile = workload::profile_for(svc),
                                         .flows = flows,
                                         .seed = kBenchSeed + shard};
    workload::RunOptions options;
    options.threads = bench_threads();
    fleet::RecordSink sink(
        writer,
        {.shard_id = shard,
         .service = static_cast<std::uint8_t>(svc),
         .base_time_us = static_cast<std::int64_t>(shard) * 250'000});
    workload::ParallelRunner runner(cfg, std::move(options));
    runner.run(sink);
  }
  return os.str();
}

std::vector<fleet::FlowRecord> parse_shard(const std::string& blob) {
  const auto result = fleet::read_records(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()));
  if (!result.ok()) {
    std::printf("FAIL: shard stream did not parse cleanly: %s at offset %llu\n",
                fleet::to_string(result.error->kind),
                static_cast<unsigned long long>(result.error->offset));
    std::exit(1);
  }
  return result.records;
}

std::string prometheus_of(const fleet::FleetSnapshot& snap) {
  telemetry::Registry::instance().reset();
  fleet::publish_fleet_metrics(snap);
  std::ostringstream os;
  telemetry::Registry::instance().export_prometheus(os);
  return os.str();
}

/// Folds per-shard snapshots with the given intermediate group size.
fleet::FleetSnapshot fold_grouped(
    const std::vector<fleet::FleetSnapshot>& shards, std::size_t group) {
  std::vector<fleet::FleetSnapshot> level = shards;
  while (level.size() > 1) {
    std::vector<fleet::FleetSnapshot> next;
    for (std::size_t i = 0; i < level.size(); i += group) {
      fleet::FleetSnapshot acc = level[i];
      for (std::size_t j = i + 1; j < i + group && j < level.size(); ++j) {
        acc.merge(level[j]);
      }
      next.push_back(std::move(acc));
    }
    level = std::move(next);
  }
  return level.front();
}

fleet::FleetSnapshot fold_shuffled(
    const std::vector<fleet::FleetSnapshot>& shards, std::uint64_t seed) {
  std::vector<std::size_t> order(shards.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  fleet::FleetSnapshot acc = shards[order[0]];
  for (std::size_t i = 1; i < order.size(); ++i) acc.merge(shards[order[i]]);
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  init_telemetry(argc, argv);

  const std::size_t flows = flows_per_service(100);
  print_banner("Fleet aggregation at scale: shard emit -> merge -> report",
               "fleet monitoring layer (paper §6 deployment)", flows);
  std::printf("shards: %zu  (flows/service/shard: %zu)\n\n", kShards, flows);

  bool failed = false;

  // ---- emit ----
  const auto emit_start = std::chrono::steady_clock::now();
  std::vector<std::string> blobs;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    blobs.push_back(emit_shard(s, flows));
  }
  const double emit_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    emit_start)
          .count();

  // Writer determinism: re-emitting shard 0 must be byte-identical.
  if (emit_shard(0, flows) != blobs[0]) {
    std::printf("FAIL: shard 0 re-emission is not byte-identical\n");
    failed = true;
  }

  std::size_t total_bytes = 0;
  for (const auto& b : blobs) total_bytes += b.size();

  // ---- parse + ingest (timed; repeat until the clock has signal) ----
  std::vector<std::vector<fleet::FlowRecord>> shard_records;
  std::size_t total_records = 0;
  std::size_t reps = 0;
  const auto ingest_start = std::chrono::steady_clock::now();
  double ingest_secs = 0.0;
  do {
    shard_records.clear();
    total_records = 0;
    for (const auto& blob : blobs) {
      auto records = parse_shard(blob);
      fleet::WindowAggregator agg(kFleetConfig);
      agg.ingest(records);
      total_records += records.size();
      shard_records.push_back(std::move(records));
    }
    ++reps;
    ingest_secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - ingest_start)
                      .count();
  } while (ingest_secs < 0.2);
  const double records_per_sec =
      static_cast<double>(total_records * reps) / ingest_secs;

  std::printf("[emit]   %zu shards, %zu records, %.1f KiB in %.2fs "
              "(%.0f records/s, %.1f bytes/record)\n",
              kShards, total_records, total_bytes / 1024.0, emit_secs,
              static_cast<double>(total_records) / emit_secs,
              static_cast<double>(total_bytes) /
                  static_cast<double>(total_records));
  std::printf("[ingest] parse+window %.0f records/s (%zu reps, floor %.0f)\n",
              records_per_sec, reps, kMinRecordsPerSec);
  if (records_per_sec < kMinRecordsPerSec) {
    std::printf("FAIL: ingest throughput below floor\n");
    failed = true;
  }

  // ---- merge determinism ----
  std::vector<fleet::FleetSnapshot> snapshots;
  for (const auto& records : shard_records) {
    fleet::WindowAggregator agg(kFleetConfig);
    agg.ingest(records);
    snapshots.push_back(agg.snapshot());
  }

  const fleet::FleetSnapshot seq = fold_grouped(snapshots, snapshots.size());
  const std::string report = fleet::render_fleet_report(seq);
  const std::string prom = prometheus_of(seq);

  struct Variant {
    const char* name;
    fleet::FleetSnapshot snap;
  };
  std::vector<Variant> variants;
  variants.push_back({"groups of 2", fold_grouped(snapshots, 2)});
  variants.push_back({"groups of 4", fold_grouped(snapshots, 4)});
  variants.push_back({"groups of 8", fold_grouped(snapshots, 8)});
  variants.push_back({"shuffled #1", fold_shuffled(snapshots, 17)});
  variants.push_back({"shuffled #2", fold_shuffled(snapshots, 23)});
  for (const auto& v : variants) {
    const bool snap_ok = v.snap == seq;
    const bool report_ok = fleet::render_fleet_report(v.snap) == report;
    const bool prom_ok = prometheus_of(v.snap) == prom;
    std::printf("[merge]  %-12s snapshot %s  report %s  prometheus %s\n",
                v.name, snap_ok ? "==" : "DIFFERS",
                report_ok ? "==" : "DIFFERS", prom_ok ? "==" : "DIFFERS");
    if (!snap_ok || !report_ok || !prom_ok) failed = true;
  }

  std::printf("\n%s\n", report.c_str());

  write_telemetry_artifacts();
  if (failed) {
    std::printf("RESULT: FAIL\n");
    return 1;
  }
  std::printf("RESULT: OK\n");
  return 0;
}
