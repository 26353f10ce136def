// perf_baseline: the repository's end-to-end and per-layer performance
// benchmark. See README.md in this directory for the workloads, metrics
// and how to read them.
//
//   perf_baseline run [--workload=NAME|all] [--seed=N] [--seconds=N]
//                     [--trace=0|1] [--trace-out=DIR] [--save=DIR]
//   perf_baseline compare A_DIR B_DIR
//
// Run from the repository root (run.sh does): captures go to kWorkDir and
// `compare` reads the bounds from BENCHMARK.json there.
//
// `run` starts one child process per workload (plus a `prepare` child that
// writes the pcap_* captures), prints every metric with its unit, and ends
// each workload with one JSON line {correct, attempted, failed, metrics}.
// It exits non-zero when any output check failed. Flags take `--k=v` or
// `--k v`.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/json.h"
#include "util/env.h"
#include "workloads.h"

namespace perf {
int compare_main(const std::string& dir_a, const std::string& dir_b,
                 const std::string& benchmark_path);
}  // namespace perf

namespace {

using perf::CaptureSet;
using perf::WorkloadResult;
using tapo::telemetry::Json;

constexpr const char* kWorkDir = "build/perf_baseline/work";

int usage() {
  std::fprintf(
      stderr,
      "usage: perf_baseline run [--workload=NAME|all] [--seed=N] "
      "[--seconds=N] [--trace=0|1]\n"
      "                         [--trace-out=DIR] [--save=DIR]\n"
      "       perf_baseline compare A_DIR B_DIR\n"
      "workloads: sim_web sim_cloud pcap_batch pcap_stream (default: all)\n");
  return 2;
}

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
  std::string error;

  std::string get(const std::string& key, const std::string& dflt = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
  bool has(const std::string& key) const { return flags.count(key) != 0; }
};

Args parse_args(int argc, char** argv, int first,
                const std::vector<std::string>& known) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      a.positional.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      a.error = "missing value for --" + key;
      return a;
    }
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      a.error = "unknown flag --" + key;
      return a;
    }
    a.flags[key] = value;
  }
  return a;
}

std::optional<std::uint64_t> u64_flag(const Args& a, const std::string& key,
                                      std::uint64_t dflt) {
  if (!a.has(key)) return dflt;
  return tapo::util::parse_u64(a.get(key));
}

std::uint64_t as_u64(const Json* v) {
  return v != nullptr ? static_cast<std::uint64_t>(v->number()) : 0;
}

std::string as_str(const Json* v) { return v != nullptr ? v->str() : ""; }

std::vector<perf::Metric> metrics_from(const Json* obj) {
  std::vector<perf::Metric> out;
  if (obj == nullptr) return out;
  for (const auto& [name, m] : obj->object()) {
    const Json* value = m.find("value");
    out.push_back({name, value != nullptr ? value->number() : 0.0,
                   as_str(m.find("unit"))});
  }
  return out;
}

// ------------------------------------------------------- child processes

/// Runs this binary with `args` in a child process, waits for it, and
/// parses the last line of its stdout as JSON (stderr passes through).
/// nullopt when it could not run, failed, or printed no JSON.
std::optional<Json> run_self(const std::vector<std::string>& args) {
  std::vector<std::string> full = {"perf_baseline"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : full) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perf_baseline: `%s` child failed (status %d)\n",
                 args.front().c_str(), status);
    return std::nullopt;
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  const auto nl = out.rfind('\n');
  std::string error;
  auto json = tapo::telemetry::json_parse(
      nl == std::string::npos ? out : out.substr(nl + 1), &error);
  if (!json || json->type() != Json::Type::kObject) {
    std::fprintf(stderr, "perf_baseline: `%s` child printed no result: %s\n",
                 args.front().c_str(), error.c_str());
    return std::nullopt;
  }
  return json;
}

// --------------------------------------------------------------- `run`

struct RunSettings {
  std::uint64_t seed = perf::kDefaultSeed;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string save;
};

/// Runs one workload: prepare (pcap_*), then measure, each in a child.
std::optional<WorkloadResult> run_workload(const std::string& workload,
                                           const RunSettings& s) {
  std::vector<std::string> args = {
      "measure", "--workload=" + workload, "--seed=" + std::to_string(s.seed),
      "--seconds=" + std::to_string(s.seconds),
      std::string("--trace=") + (s.trace ? "1" : "0")};
  if (!s.trace_out.empty()) {
    args.push_back("--trace-out=" + s.trace_out + "/" + workload);
  }
  WorkloadResult prep;  // prepare-step failures and setup time
  std::string prefix;
  if (perf::is_pcap_workload(workload)) {
    std::filesystem::create_directories(kWorkDir);
    prefix = std::string(kWorkDir) + "/capture-" + std::to_string(getpid());
    const auto info = run_self(
        {"prepare", "--seed=" + std::to_string(s.seed), "--out=" + prefix});
    if (!info) return std::nullopt;
    const std::uint64_t diverged = as_u64(info->find("diverged"));
    prep.check(diverged == 0, "capture: diverged flows", diverged);
    if (const Json* caps = info->find("captures")) {
      for (const Json& c : caps->array()) {
        const std::uint64_t skipped = as_u64(c.find("skipped"));
        prep.check(skipped == 0, "capture read-back: skipped records",
                   skipped);
      }
    }
    const Json* setup = info->find("setup_s");
    prep.put("setup_s", setup != nullptr ? setup->number() : 0.0, "s");
    args.push_back("--captures=" + prefix + ".json");
  }
  const auto measured = run_self(args);
  if (!prefix.empty()) {
    const auto dir = std::filesystem::path(prefix).parent_path();
    const std::string stem = std::filesystem::path(prefix).filename().string();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind(stem + ".", 0) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }
  if (!measured) return std::nullopt;

  WorkloadResult r;
  const Json* correct = measured->find("correct");
  r.correct = correct != nullptr && correct->boolean() && prep.correct;
  r.attempted = as_u64(measured->find("attempted"));
  r.failed = as_u64(measured->find("failed")) + prep.failed;
  r.digest = as_str(measured->find("digest"));
  r.failures = prep.failures;
  if (const Json* f = measured->find("failures")) {
    for (const Json& line : f->array()) r.failures.push_back(line.str());
  }
  r.metrics = metrics_from(measured->find("metrics"));
  r.layers = metrics_from(measured->find("layers"));
  r.notes = metrics_from(measured->find("notes"));
  if (!s.trace) {
    r.metrics.insert(r.metrics.end(), prep.metrics.begin(), prep.metrics.end());
  }
  return r;
}

std::string result_json(const WorkloadResult& r) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + perf::metrics_json(r.metrics) + "}";
}

void print_result(const std::string& workload, const RunSettings& s,
                  const WorkloadResult& r) {
  std::printf("== %s (seed %llu, %llu s, %s) ==\n", workload.c_str(),
              static_cast<unsigned long long>(s.seed),
              static_cast<unsigned long long>(s.seconds),
              s.trace ? "traced" : "untraced");
  for (const perf::Metric& m : r.metrics) {
    std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perf::Metric& m : r.notes) {
    std::printf("  %-24s %.6g %s (not bounded)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-24s %.6g ratio (%llu failed of %llu attempted)\n",
              "ops_failed_frac",
              r.attempted != 0 ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  %-24s %s\n", "digest", r.digest.c_str());
  for (const std::string& f : r.failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
}

void save_result(const std::string& dir, const std::string& workload,
                 const RunSettings& s, const WorkloadResult& r) {
  std::filesystem::create_directories(dir);
  for (int k = 0; k < 100000; ++k) {
    char name[64];
    std::snprintf(name, sizeof name, "/%s.%05d.json", workload.c_str(), k);
    const std::string path = dir + name;
    if (std::filesystem::exists(path)) continue;
    std::ofstream out(path);
    out << "{\"workload\": " << tapo::telemetry::json_quote(workload)
        << ", \"seed\": " << s.seed << ", \"trace\": " << (s.trace ? 1 : 0)
        << ", \"result\": " << result_json(r) << "}\n";
    return;
  }
}

int cmd_run(const Args& a) {
  RunSettings s;
  std::vector<std::string> workloads = perf::workload_names();
  if (a.has("workload") && a.get("workload") != "all") {
    const std::string w = a.get("workload");
    if (std::find(workloads.begin(), workloads.end(), w) == workloads.end()) {
      std::fprintf(stderr, "perf_baseline: unknown workload %s\n", w.c_str());
      return usage();
    }
    workloads = {w};
  }
  const auto seed = u64_flag(a, "seed", perf::kDefaultSeed);
  const auto seconds = u64_flag(a, "seconds", 10);
  const auto trace = u64_flag(a, "trace", 0);
  if (!seed || !seconds || *seconds == 0 || !trace || *trace > 1) {
    std::fprintf(stderr, "perf_baseline: --seed, --seconds (> 0) and --trace "
                         "(0|1) take whole numbers\n");
    return usage();
  }
  s.seed = *seed;
  s.seconds = *seconds;
  s.trace_out = a.get("trace-out");
  s.trace = *trace == 1 || !s.trace_out.empty();
  s.save = a.get("save");

  bool all_correct = true;
  std::string layers = "{";
  for (const std::string& w : workloads) {
    const auto r = run_workload(w, s);
    if (!r) return 1;
    print_result(w, s, *r);
    if (!s.save.empty()) save_result(s.save, w, s, *r);
    all_correct = all_correct && r->correct;
    if (s.trace) {
      layers += std::string(layers.size() > 1 ? ", " : "") +
                tapo::telemetry::json_quote(w) + ": " +
                perf::metrics_json(r->layers);
    }
  }
  if (!s.trace_out.empty()) {
    std::ofstream out(s.trace_out + "/layers.json");
    out << layers << "}\n";
  }
  return all_correct ? 0 : 1;
}

// ------------------------------------------------- children and compare

/// Writes the pcap_* captures to `<out>.<k>.pcap` and their list to
/// `<out>.json`, which it also prints.
int cmd_prepare(const Args& a) {
  const auto seed = u64_flag(a, "seed", perf::kDefaultSeed);
  if (!a.error.empty() || !seed || a.get("out").empty()) return usage();
  const std::string json =
      perf::prepare_captures(*seed, a.get("out")).to_json();
  std::ofstream(a.get("out") + ".json") << json << "\n";
  std::printf("%s\n", json.c_str());
  return 0;
}

int cmd_measure(const Args& a) {
  perf::MeasureOptions o;
  o.workload = a.get("workload");
  const auto seed = u64_flag(a, "seed", perf::kDefaultSeed);
  const auto seconds = u64_flag(a, "seconds", 10);
  const auto trace = u64_flag(a, "trace", 0);
  if (!a.error.empty() || !seed || !seconds || !trace) return usage();
  o.seed = *seed;
  o.seconds = static_cast<double>(*seconds);
  o.trace = *trace != 0;
  o.trace_out = a.get("trace-out");
  if (a.has("captures")) o.captures = CaptureSet::load(a.get("captures"));
  std::printf("%s\n", perf::measure(o).to_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") {
      const Args a = parse_args(
          argc, argv, 2,
          {"workload", "seed", "seconds", "trace", "trace-out", "save"});
      if (!a.error.empty() || !a.positional.empty()) {
        std::fprintf(stderr, "perf_baseline: %s\n", a.error.c_str());
        return usage();
      }
      return cmd_run(a);
    }
    if (cmd == "compare") {
      const Args a = parse_args(argc, argv, 2, {});
      if (!a.error.empty() || a.positional.size() != 2) return usage();
      return perf::compare_main(a.positional[0], a.positional[1],
                                "BENCHMARK.json");
    }
    if (cmd == "prepare") {
      return cmd_prepare(parse_args(argc, argv, 2, {"seed", "out"}));
    }
    if (cmd == "measure") {
      return cmd_measure(parse_args(
          argc, argv, 2,
          {"workload", "seed", "seconds", "trace", "trace-out", "captures"}));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_baseline %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
