#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "telemetry/telemetry.h"
#include "util/env.h"
#include "util/strings.h"

namespace tapo::bench {

namespace {

/// Artifact directory chosen by init_telemetry; empty = telemetry off.
std::string g_telemetry_dir;

/// One-shot note when multi-threaded runs cannot show a speedup here.
void maybe_warn_few_cpus(std::size_t threads_requested) {
  static bool warned = false;
  if (warned) return;
  const unsigned online = std::thread::hardware_concurrency();
  // hardware_concurrency() == 0 means "unknown" (the standard allows it);
  // treat it like a single-CPU box since a speedup is equally unverifiable.
  if (online > 1) return;
  if (threads_requested == 1) return;  // serial run: nothing to measure
  warned = true;
  std::printf(
      "[note] %u online CPU%s; multi-thread speedup not measurable on this "
      "machine (results are still bit-identical to a serial run)\n",
      online, online == 1 ? "" : "s");
}

}  // namespace

std::size_t flows_per_service(std::size_t dflt) {
  // Memoized so a malformed value warns once per binary, not per call.
  static const std::size_t value =
      util::env_positive_size("TAPO_BENCH_FLOWS", dflt);
  return value;
}

std::size_t bench_threads(std::size_t dflt) {
  // 0 is a valid request ("all cores"), so use the zero-permitting parser.
  static const std::size_t value = util::env_size("TAPO_BENCH_THREADS", dflt);
  return value;
}

std::vector<ServiceRun> run_all_services(std::size_t flows, std::uint64_t seed,
                                         bool analyze) {
  maybe_warn_few_cpus(bench_threads());
  std::vector<ServiceRun> runs;
  for (auto svc : {workload::Service::kCloudStorage,
                   workload::Service::kSoftwareDownload,
                   workload::Service::kWebSearch}) {
    const workload::ExperimentConfig cfg{.profile = workload::profile_for(svc),
                                         .flows = flows,
                                         .seed = seed,
                                         .analyze = analyze};
    workload::RunOptions options;
    options.threads = bench_threads();
    workload::ParallelRunner runner(cfg, std::move(options));
    workload::CollectingSink sink;
    const auto perf = runner.run(sink);
    print_perf(workload::to_string(svc), perf);
    runs.push_back({svc, sink.take(), perf});
  }
  return runs;
}

void init_telemetry(int argc, char** argv,
                    std::initializer_list<std::string_view> own_flags,
                    std::string_view own_usage) {
  const char* dir = std::getenv("TAPO_TELEMETRY_OUT");
  std::string from_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kFlag = "--telemetry-out=";
    if (arg.starts_with(kFlag)) {
      from_flag = arg.substr(kFlag.size());
      continue;
    }
    if (std::ranges::none_of(own_flags, [&](std::string_view flag) {
          return arg.starts_with(flag);
        })) {
      const std::string prog = argv[0];
      std::string usage = prog.substr(prog.rfind('/') + 1);
      if (!own_usage.empty()) (usage += ' ') += own_usage;
      std::printf("unknown argument '%s'\nusage: %s [--telemetry-out=<dir>]\n",
                  argv[i], usage.c_str());
      std::exit(2);
    }
  }
  if (!from_flag.empty()) {
    g_telemetry_dir = from_flag;  // flag wins over the env var
  } else if (dir != nullptr && dir[0] != '\0') {
    g_telemetry_dir = dir;
  } else {
    return;  // telemetry stays disabled; zero cost beyond a relaxed load
  }
  telemetry::enable_all();
  auto& tracer = telemetry::Tracer::instance();
  tracer.set_sample_every(util::env_positive_size("TAPO_TELEMETRY_SAMPLE", 1));
  if (const char* pkts = std::getenv("TAPO_TELEMETRY_PACKETS")) {
    if (std::string(pkts) == "1") {
      tracer.set_categories(telemetry::kPackets | telemetry::kControl |
                            telemetry::kLifecycle);
    }
  }
  std::printf("[telemetry] enabled; artifacts -> %s\n",
              g_telemetry_dir.c_str());
}

void write_telemetry_artifacts() {
  if (g_telemetry_dir.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(g_telemetry_dir, ec);
  if (ec) {
    std::fprintf(stderr, "[telemetry] cannot create %s: %s\n",
                 g_telemetry_dir.c_str(), ec.message().c_str());
    return;
  }
  const auto path = [&](const char* file) {
    return (fs::path(g_telemetry_dir) / file).string();
  };
  const auto& tracer = telemetry::Tracer::instance();
  const auto& registry = telemetry::Registry::instance();
  {
    std::ofstream os(path("trace.json"));
    tracer.export_chrome_trace(os);
  }
  {
    std::ofstream os(path("trace.jsonl"));
    tracer.export_jsonl(os);
  }
  {
    std::ofstream os(path("metrics.prom"));
    registry.export_prometheus(os);
  }
  {
    std::ofstream os(path("metrics.json"));
    registry.export_json(os);
  }
  std::printf("[telemetry] wrote trace.json trace.jsonl metrics.prom "
              "metrics.json to %s (%llu events buffered, %llu dropped)\n",
              g_telemetry_dir.c_str(),
              static_cast<unsigned long long>(tracer.collect().size()),
              static_cast<unsigned long long>(tracer.dropped()));
}

void print_perf(const std::string& label, const workload::RunStats& stats) {
  std::printf(
      "[perf] %-17s %6zu flows  %7.2fs wall  %8.1f flows/s  "
      "threads=%zu util=%.0f%%  (worker s: gen %.2f | sim %.2f | analyze "
      "%.2f)\n",
      label.c_str(), stats.flows, stats.wall_seconds, stats.flows_per_second,
      stats.threads, stats.worker_utilization * 100.0, stats.generate_seconds,
      stats.simulate_seconds, stats.analyze_seconds);
}

void print_banner(const std::string& title, const std::string& paper_ref,
                  std::size_t flows) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s  |  flows/service: %zu  |  seed: %llu  |  "
              "threads: %zu\n",
              paper_ref.c_str(), flows,
              static_cast<unsigned long long>(kBenchSeed), bench_threads());
  std::printf("(absolute numbers differ from the paper's testbed; compare "
              "shapes/orderings)\n");
  std::printf("==================================================================\n");
}

void print_cdf(const std::string& name, const stats::Cdf& cdf,
               const std::string& unit, const std::vector<double>& quantiles) {
  if (cdf.empty()) {
    std::printf("%-28s (no samples)\n", name.c_str());
    return;
  }
  std::printf("%-28s n=%-8zu", name.c_str(), cdf.count());
  for (double q : quantiles) {
    std::printf(" p%-2.0f=%-9.3g", q * 100, cdf.percentile(q));
  }
  std::printf("%s\n", unit.c_str());
}

std::string vs_paper(double measured, double paper, const char* fmt) {
  return str_format(fmt, measured) + " (paper " + str_format(fmt, paper) + ")";
}

}  // namespace tapo::bench
