// `perf_baseline compare A_DIR B_DIR`: side-by-side verdicts for two sets
// of saved runs (`run --save=DIR`), A the parent and B the change.
//
// For every (workload, end-to-end metric) pair of BENCHMARK.json it prints
// each side's median and quartiles, how many of the index-aligned pairs
// (A's k-th run against B's k-th run, so alternate the sides when running)
// B won, and a verdict:
//
//   improved                B won >= 9/10 of the pairs and the medians
//                           differ by more than A's interquartile range
//   regressed beyond bound  B's median is worse than A's by more than the
//                           metric's bound
//   unresolved              either side's spread (IQR / median) is wider
//                           than the bound, unless every B run beats (or,
//                           for a regression, loses to) every A run
//   within bound            none of the above
//
// Exits 1 when any pair regressed beyond its bound.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/json.h"

namespace perf {
namespace {

using tapo::telemetry::Json;

std::optional<Json> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return tapo::telemetry::json_parse(ss.str());
}

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = false;
  double bound = 0.0;
};

/// workload -> metric -> values, in saved-file (run) order.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool load_runs(const std::string& dir, Runs& runs) {
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "compare: cannot list %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    const auto doc = load_json(f);
    const Json* result = doc ? doc->find("result") : nullptr;
    const Json* metrics = result ? result->find("metrics") : nullptr;
    const Json* workload = doc ? doc->find("workload") : nullptr;
    const Json* trace = doc ? doc->find("trace") : nullptr;
    if (metrics == nullptr || workload == nullptr) {
      std::fprintf(stderr, "compare: %s is not a saved run\n", f.c_str());
      return false;
    }
    if (trace != nullptr && trace->number() != 0.0) continue;  // per-layer
    for (const auto& [name, m] : metrics->object()) {
      if (const Json* v = m.find("value")) {
        runs[workload->str()][name].push_back(v->number());
      }
    }
  }
  return true;
}

std::string pct(double v, bool sign = true) {
  char buf[32];
  std::snprintf(buf, sizeof buf, sign ? "%+.1f%%" : "%.1f%%", v * 100.0);
  return buf;
}

}  // namespace

int compare_main(const std::string& dir_a, const std::string& dir_b,
                 const std::string& benchmark_path) {
  const auto bench = load_json(benchmark_path);
  const Json* e2e = bench ? bench->find("end_to_end") : nullptr;
  const Json* wls = bench ? bench->find("workloads") : nullptr;
  if (e2e == nullptr || wls == nullptr) {
    std::fprintf(stderr, "compare: cannot read metrics from %s\n",
                 benchmark_path.c_str());
    return 2;
  }
  std::vector<MetricSpec> specs;
  for (const Json& m : e2e->array()) {
    const Json* name = m.find("name");
    const Json* better = m.find("better");
    const Json* bound = m.find("bound");
    const Json* unit = m.find("unit");
    if (name == nullptr || better == nullptr || bound == nullptr) {
      std::fprintf(stderr, "compare: malformed end_to_end entry\n");
      return 2;
    }
    specs.push_back({name->str(), unit != nullptr ? unit->str() : "",
                     better->str() == "lower", bound->number()});
  }
  Runs a, b;
  if (!load_runs(dir_a, a) || !load_runs(dir_b, b)) return 2;

  std::printf("%-12s %-14s %-36s %-36s %-7s %-7s %-6s %s\n", "workload",
              "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins",
              "B vs A", "bound", "verdict");
  bool regressed = false;
  for (const Json& w : wls->array()) {
    const Json* wname = w.find("name");
    if (wname == nullptr) continue;
    const std::string workload = wname->str();
    for (const MetricSpec& spec : specs) {
      const std::vector<double>& va = a[workload][spec.name];
      const std::vector<double>& vb = b[workload][spec.name];
      if (va.empty() || vb.empty()) {
        std::printf("%-12s %-14s (no runs on %s)\n", workload.c_str(),
                    spec.name.c_str(), va.empty() ? "A" : "B");
        continue;
      }
      const Quartiles qa = quartiles(va);
      const Quartiles qb = quartiles(vb);
      // "better(x, y)": x reads better than y in this metric's direction.
      const auto better = [&](double x, double y) {
        return spec.lower_is_better ? x < y : x > y;
      };
      const std::size_t pairs = std::min(va.size(), vb.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) wins += better(vb[i], va[i]);
      const auto [a_lo, a_hi] = std::minmax_element(va.begin(), va.end());
      const auto [b_lo, b_hi] = std::minmax_element(vb.begin(), vb.end());
      const bool all_b_better = spec.lower_is_better ? *b_hi < *a_lo
                                                     : *b_lo > *a_hi;
      const bool all_b_worse = spec.lower_is_better ? *b_lo > *a_hi
                                                    : *b_hi < *a_lo;
      // Positive worse_gap: B's median is worse than A's, as a share.
      const double gap = (qb.q2 - qa.q2) / qa.q2;
      const double worse_gap = spec.lower_is_better ? gap : -gap;
      const double spread =
          std::max((qa.q3 - qa.q1) / qa.q2, (qb.q3 - qb.q1) / qb.q2);
      const std::string unresolved =
          "unresolved (spread " + pct(spread, false) + ")";
      std::string verdict;
      if (wins * 10 >= pairs * 9 && worse_gap < 0.0 &&
          std::fabs(qb.q2 - qa.q2) > qa.q3 - qa.q1) {
        verdict = "improved";
      } else if (worse_gap > spec.bound) {
        verdict = spread > spec.bound && !all_b_worse
                      ? unresolved
                      : "regressed beyond bound";
        regressed = regressed || verdict == "regressed beyond bound";
      } else if (spread > spec.bound && !all_b_better) {
        verdict = unresolved;
      } else {
        verdict = "within bound";
      }
      char side_a[64], side_b[64], win[16], bound[16];
      std::snprintf(side_a, sizeof side_a, "%.5g [%.5g, %.5g]", qa.q2, qa.q1,
                    qa.q3);
      std::snprintf(side_b, sizeof side_b, "%.5g [%.5g, %.5g]", qb.q2, qb.q1,
                    qb.q3);
      std::snprintf(win, sizeof win, "%zu/%zu", wins, pairs);
      std::snprintf(bound, sizeof bound, "%.0f%%", spec.bound * 100.0);
      std::printf("%-12s %-14s %-36s %-36s %-7s %-7s %-6s %s\n",
                  workload.c_str(), spec.name.c_str(), side_a, side_b, win,
                  pct(gap).c_str(), bound, verdict.c_str());
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace perf
