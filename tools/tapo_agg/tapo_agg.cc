// tapo_agg: fleet aggregation CLI.
//
//   tapo_agg emit --out=<dir> [--shards=N] [--flows=N] [--seed=N]
//       Simulates N server shards (all three calibrated service profiles
//       each) and writes one binary flow-record file per shard:
//       <dir>/shard-<id>.tflr. Deterministic for a given seed.
//
//   tapo_agg merge [--window-s=N] [--prom=<file>] [--ingest-dir=<dir>]
//                  [file...]
//       Ingests shard record files (every *.tflr under --ingest-dir, in
//       sorted name order, plus any positional paths), merges them into
//       one fleet view, and prints the ASCII fleet report to stdout.
//       --prom additionally writes the fleet metrics as a Prometheus text
//       exposition via the telemetry registry.
//
// Robustness: a corrupt or truncated shard file is *reported* (typed error
// + byte offset on stderr) and its valid record prefix is still ingested;
// only an unreadable file is a hard failure. The merged view is identical
// for any order/grouping of the same shard files (DESIGN.md §13).
//
// Flag values are parsed strictly (util::parse_positive_size/parse_u64):
// malformed values are a usage error, not a silent fallback, because a CLI
// typo — unlike an inherited environment variable — is always a mistake.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/record.h"
#include "fleet/record_sink.h"
#include "fleet/window.h"
#include "telemetry/registry.h"
#include "util/env.h"
#include "util/time.h"
#include "workload/experiment.h"
#include "workload/profiles.h"
#include "workload/runner.h"

using namespace tapo;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s emit --out=<dir> [--shards=N] [--flows=N] [--seed=N]\n"
      "       %s merge [--window-s=N] [--prom=<file>] [--ingest-dir=<dir>] "
      "[file...]\n",
      argv0, argv0);
  return 1;
}

/// Returns the value of --<name>=<value> when `arg` matches, else nullopt.
std::optional<std::string> flag_value(const std::string& arg,
                                      const std::string& name) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return std::nullopt;
  return arg.substr(prefix.size());
}

// ------------------------------------------------------------------ emit

int run_emit(const std::vector<std::string>& args, const char* argv0) {
  std::string out_dir;
  std::size_t shards = 4;
  std::size_t flows = 50;
  std::uint64_t seed = 2015;
  for (const auto& arg : args) {
    if (auto v = flag_value(arg, "out")) {
      out_dir = *v;
    } else if (auto s = flag_value(arg, "shards")) {
      const auto parsed = util::parse_positive_size(*s);
      if (!parsed) {
        std::fprintf(stderr, "tapo_agg: bad --shards=%s\n", s->c_str());
        return usage(argv0);
      }
      shards = *parsed;
    } else if (auto f = flag_value(arg, "flows")) {
      const auto parsed = util::parse_positive_size(*f);
      if (!parsed) {
        std::fprintf(stderr, "tapo_agg: bad --flows=%s\n", f->c_str());
        return usage(argv0);
      }
      flows = *parsed;
    } else if (auto sd = flag_value(arg, "seed")) {
      const auto parsed = util::parse_u64(*sd);
      if (!parsed) {
        std::fprintf(stderr, "tapo_agg: bad --seed=%s\n", sd->c_str());
        return usage(argv0);
      }
      seed = *parsed;
    } else {
      std::fprintf(stderr, "tapo_agg: unknown emit argument %s\n",
                   arg.c_str());
      return usage(argv0);
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "tapo_agg: emit needs --out=<dir>\n");
    return usage(argv0);
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "tapo_agg: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    const auto path = std::filesystem::path(out_dir) /
                      ("shard-" + std::to_string(shard) + ".tflr");
    std::ofstream os(path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "tapo_agg: cannot open %s for writing\n",
                   path.string().c_str());
      return 1;
    }
    fleet::RecordWriter writer(os);
    for (auto svc : {workload::Service::kCloudStorage,
                     workload::Service::kSoftwareDownload,
                     workload::Service::kWebSearch}) {
      auto cfg = workload::ExperimentConfig{}
                     .with_profile(workload::profile_for(svc))
                     .with_flows(flows)
                     .with_seed(seed + shard)
                     .with_analysis(true);
      fleet::RecordSink sink(
          writer,
          fleet::RecordSinkConfig{}
              .with_shard_id(shard)
              .with_service(static_cast<std::uint8_t>(svc))
              // Stagger shards so their windows interleave at merge time.
              .with_base_time_us(static_cast<std::int64_t>(shard) * 250'000));
      workload::ParallelRunner runner(cfg);
      runner.run(sink);
    }
    std::printf("wrote %s: %llu records, %llu bytes\n", path.string().c_str(),
                static_cast<unsigned long long>(writer.records()),
                static_cast<unsigned long long>(writer.bytes()));
  }
  return 0;
}

// ----------------------------------------------------------------- merge

int run_merge(const std::vector<std::string>& args, const char* argv0) {
  std::vector<std::string> files;
  std::string prom_path;
  std::int64_t window_s = 60;
  for (const auto& arg : args) {
    if (auto w = flag_value(arg, "window-s")) {
      const auto parsed = util::parse_positive_size(*w);
      if (!parsed) {
        std::fprintf(stderr, "tapo_agg: bad --window-s=%s\n", w->c_str());
        return usage(argv0);
      }
      window_s = static_cast<std::int64_t>(*parsed);
    } else if (auto p = flag_value(arg, "prom")) {
      prom_path = *p;
    } else if (auto d = flag_value(arg, "ingest-dir")) {
      const fleet::ListResult listing = fleet::collect_record_files(*d);
      if (!listing.ok()) {
        std::fprintf(stderr, "tapo_agg: %s\n", listing.error.c_str());
        return 1;
      }
      files.insert(files.end(), listing.files.begin(), listing.files.end());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tapo_agg: unknown merge argument %s\n",
                   arg.c_str());
      return usage(argv0);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "tapo_agg: merge needs record files (positional or "
                         "--ingest-dir=<dir>)\n");
    return usage(argv0);
  }

  fleet::WindowAggregator agg(
      fleet::FleetConfig{}.with_window(Duration::micros(window_s * 1'000'000)));
  bool hard_failure = false;
  for (const auto& file : files) {
    const auto result = fleet::read_record_file(file);
    if (result.error.has_value()) {
      std::fprintf(stderr, "tapo_agg: %s: %s at offset %llu%s%s\n",
                   file.c_str(), fleet::to_string(result.error->kind),
                   static_cast<unsigned long long>(result.error->offset),
                   result.error->detail.empty() ? "" : ": ",
                   result.error->detail.c_str());
      if (result.error->kind == fleet::RecordErrorKind::kIoError) {
        hard_failure = true;
        continue;
      }
      std::fprintf(stderr, "tapo_agg: %s: ingesting the %zu-record valid "
                           "prefix\n",
                   file.c_str(), result.records.size());
    }
    agg.ingest(result.records);
    std::printf("ingested %s: %zu records\n", file.c_str(),
                result.records.size());
  }

  const fleet::FleetSnapshot& snap = agg.snapshot();
  std::printf("\n%s", fleet::render_fleet_report(snap).c_str());

  if (!prom_path.empty()) {
    auto& registry = telemetry::Registry::instance();
    registry.reset();
    fleet::publish_fleet_metrics(snap);
    std::ofstream os(prom_path);
    if (!os) {
      std::fprintf(stderr, "tapo_agg: cannot open %s for writing\n",
                   prom_path.c_str());
      return 1;
    }
    registry.export_prometheus(os);
    std::printf("\nwrote prometheus metrics to %s\n", prom_path.c_str());
  }

  if (hard_failure) return 1;
  return snap.records == 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (mode == "emit") return run_emit(args, argv[0]);
  if (mode == "merge") return run_merge(args, argv[0]);
  std::fprintf(stderr, "tapo_agg: unknown mode %s\n", mode.c_str());
  return usage(argv[0]);
}
