// A/B test of loss-recovery mechanisms — the mitigation half of the paper
// (§5): replay the same workload under native Linux recovery, TLP, and
// S-RTO, and compare request latency.
//
//   ./srto_ab [web|cloud|soft] [flows] [loss]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "stats/cdf.h"
#include "stats/table.h"
#include "util/env.h"
#include "util/strings.h"
#include "workload/experiment.h"

using namespace tapo;
using namespace tapo::workload;
using tcp::RecoveryMechanism;

int main(int argc, char** argv) {
  Service svc = Service::kWebSearch;
  if (argc > 1) {
    if (std::strcmp(argv[1], "cloud") == 0) {
      svc = Service::kCloudStorage;
    } else if (std::strcmp(argv[1], "soft") == 0) {
      svc = Service::kSoftwareDownload;
    } else if (std::strcmp(argv[1], "web") != 0) {
      std::fprintf(stderr, "error: service must be web, cloud or soft\n");
      return 1;
    }
  }
  std::size_t flows = 400;
  if (argc > 2) {
    const auto parsed = util::parse_positive_size(argv[2]);
    if (!parsed) {
      std::fprintf(stderr, "error: flow count must be a positive integer\n");
      return 1;
    }
    flows = *parsed;
  }
  double loss = 0.0;
  if (argc > 3) {
    const auto parsed = util::parse_double(argv[3]);
    if (!parsed || *parsed < 0.0 || *parsed >= 1.0) {
      std::fprintf(stderr, "error: loss rate must be a number in [0, 1)\n");
      return 1;
    }
    loss = *parsed;
  }

  ExperimentConfig base;
  base.profile = profile_for(svc);
  base.flows = flows;
  base.seed = 99;
  base.analyze = false;
  if (loss > 0) {
    // Override the loss model with a fixed rate for controlled comparison.
    base.profile.path.clean_prob = 0.0;
    base.profile.path.loss_mean = loss;
  }

  std::printf("A/B over %zu %s flows (same seed per mechanism)\n\n", flows,
              to_string(svc));

  stats::Table t;
  t.set_header({"mechanism", "p50", "p90", "p99", "mean", "retrans%", "RTOs",
                "probes"});
  stats::Cdf native_lat;
  for (auto mech : {RecoveryMechanism::kNative, RecoveryMechanism::kTlp,
                    RecoveryMechanism::kSrto}) {
    ExperimentConfig cfg = base;
    cfg.recovery = mech;
    const auto res = run_experiment(cfg);
    stats::Cdf lat;
    std::uint64_t rtos = 0, probes = 0;
    for (const auto& o : res.outcomes) {
      rtos += o.sender_stats.rto_fires;
      probes += o.sender_stats.tlp_probes + o.sender_stats.srto_probes;
      for (const auto& r : o.metrics.requests) {
        if (r.completed && r.server_acked_resp != TimePoint()) {
          lat.add(r.latency().sec());
        }
      }
    }
    if (mech == RecoveryMechanism::kNative) native_lat = lat;
    auto cell = [&](double q) {
      const double v = q < 0 ? lat.mean() : lat.percentile(q);
      const double b = q < 0 ? native_lat.mean() : native_lat.percentile(q);
      if (mech == RecoveryMechanism::kNative) return str_format("%.3fs", v);
      return str_format("%.3fs (%+.1f%%)", v, b > 0 ? (v - b) / b * 100 : 0.0);
    };
    t.add_row({tcp::to_string(mech), cell(0.5), cell(0.9), cell(0.99),
               cell(-1), pct(res.retrans_ratio()),
               str_format("%llu", static_cast<unsigned long long>(rtos)),
               str_format("%llu", static_cast<unsigned long long>(probes))});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\npaper (Table 8): S-RTO cuts short-flow latency roughly 2x "
              "more than TLP, at a modest retransmission-ratio cost "
              "(Table 9).\n");
  return 0;
}
