// Shared plumbing for the bench binaries: runs the calibrated service
// workloads, and prints paper-vs-measured tables.
//
// Every bench accepts two environment variables:
//   TAPO_BENCH_FLOWS   flows per service (default 400)
//   TAPO_BENCH_THREADS worker threads for the sharded runner (default 1;
//                      0 = all hardware threads). Results are bit-identical
//                      for any thread count — only wall clock changes.
// Seeds are fixed so output is reproducible. Malformed values warn and
// fall back to the default instead of silently changing the experiment.
//
// Telemetry: pass --telemetry-out=<dir> (or set TAPO_TELEMETRY_OUT=<dir>)
// to any bench to enable the tracer + metrics registry and write
//   <dir>/trace.json    Chrome trace_event JSON (chrome://tracing, Perfetto)
//   <dir>/trace.jsonl   one event per line, for scripting
//   <dir>/metrics.prom  Prometheus text exposition snapshot
//   <dir>/metrics.json  the same snapshot as JSON
// on exit. TAPO_TELEMETRY_SAMPLE=<n> records every n-th flow only;
// TAPO_TELEMETRY_PACKETS=1 adds the high-volume per-segment events.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "stats/cdf.h"
#include "stats/table.h"
#include "tapo/report.h"
#include "workload/experiment.h"
#include "workload/runner.h"

namespace tapo::bench {

/// Flow count per service: TAPO_BENCH_FLOWS env var, else `dflt`.
std::size_t flows_per_service(std::size_t dflt = 400);

/// Worker threads: TAPO_BENCH_THREADS env var, else `dflt` (0 = all cores).
std::size_t bench_threads(std::size_t dflt = 1);

/// Enables telemetry when --telemetry-out=<dir> appears in argv or
/// TAPO_TELEMETRY_OUT is set (see file header). Call first in main(),
/// before any flow runs. Any other argument must start with one of
/// `own_flags`, the bench's own `--name=` flags (shown in the usage line as
/// `own_usage`); anything else prints a usage line and exits 2, so a
/// misspelt flag cannot silently run the whole bench.
void init_telemetry(int argc, char** argv,
                    std::initializer_list<std::string_view> own_flags = {},
                    std::string_view own_usage = "");

/// Writes the telemetry artifacts to the directory chosen at
/// init_telemetry time (no-op when telemetry was never enabled). Call last
/// in main(), after all runs have completed.
void write_telemetry_artifacts();

constexpr std::uint64_t kBenchSeed = 2015;  // CoNEXT '15

struct ServiceRun {
  workload::Service service;
  workload::ExperimentResult result;
  workload::RunStats perf;
};

/// Runs all three services with the calibrated profiles on bench_threads()
/// workers, printing a one-line perf banner per service.
std::vector<ServiceRun> run_all_services(std::size_t flows,
                                         std::uint64_t seed = kBenchSeed,
                                         bool analyze = true);

/// Prints "[perf] ..." — wall clock, throughput, per-phase worker time and
/// utilization for one run.
void print_perf(const std::string& label, const workload::RunStats& stats);

/// Prints the standard bench banner.
void print_banner(const std::string& title, const std::string& paper_ref,
                  std::size_t flows);

/// Renders a CDF as "x f" rows at the given quantiles.
void print_cdf(const std::string& name, const stats::Cdf& cdf,
               const std::string& unit,
               const std::vector<double>& quantiles = {0.1, 0.25, 0.5, 0.75,
                                                       0.9, 0.99});

/// Formats "measured (paper X)" comparison cells.
std::string vs_paper(double measured, double paper, const char* fmt = "%.1f");

}  // namespace tapo::bench
