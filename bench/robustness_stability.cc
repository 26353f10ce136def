// Differential capture-robustness harness: how stable is TAPO's stall
// classification when the capture lies?
//
// For each calibrated service profile the same seeded workload is analyzed
// twice — once from the pristine server-side tap and once through a
// sim::apply_impairments scenario — and the per-flow stall-cause
// histograms are compared. Flows are generated from identical per-flow
// seeds, so any disagreement is attributable to the capture artifacts, not
// the traffic.
//
// Hard expectations (exit code 1 on violation):
//   * duplication-only impairment (with dup suppression enabled on both
//     arms) and timestamp-quantization-only impairment must yield 100%
//     per-flow classification agreement on every profile;
//   * the tapo_capture_artifacts_total{kind} / tapo_flows_degraded_total
//     counter deltas of every arm must equal the CaptureQuality totals
//     summed over that arm's flows;
//   * every lossy scenario must actually degrade at least one flow
//     (non-default CaptureQuality), or the injection is a silent no-op.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "sim/capture_channel.h"
#include "stats/table.h"
#include "telemetry/telemetry.h"
#include "util/strings.h"

using namespace tapo;
using namespace tapo::bench;

namespace {

using CauseCounts = std::array<std::uint64_t, analysis::kNumStallCauses>;

/// Sum of the per-flow CaptureQuality fields that have telemetry counters.
struct QualityTotals {
  std::uint64_t duplicate = 0;
  std::uint64_t seq_gap = 0;
  std::uint64_t truncated = 0;
  std::uint64_t mid_stream = 0;
  std::uint64_t suspect_stall = 0;
  std::uint64_t degraded = 0;

  bool operator==(const QualityTotals&) const = default;
  QualityTotals operator-(const QualityTotals& o) const {
    return {duplicate - o.duplicate,     seq_gap - o.seq_gap,
            truncated - o.truncated,     mid_stream - o.mid_stream,
            suspect_stall - o.suspect_stall, degraded - o.degraded};
  }
};

/// One FlowResult per flow, in index order: records the stall-cause
/// histogram and the capture-quality totals, nothing else retained.
class StabilitySink : public workload::FlowSink {
 public:
  void consume(workload::FlowResult&& result) override {
    CauseCounts counts{};
    for (const auto& fa : result.analyses) {
      for (const auto& s : fa.stalls) {
        ++counts[static_cast<std::size_t>(s.cause)];
      }
      totals_.duplicate += fa.capture.dup_packets;
      totals_.seq_gap += fa.capture.seq_gaps;
      totals_.truncated += fa.capture.truncated_packets;
      totals_.mid_stream += fa.capture.mid_stream ? 1 : 0;
      totals_.suspect_stall += fa.capture.suspect_stalls;
      if (fa.capture.degraded()) ++totals_.degraded;
    }
    causes_.push_back(counts);
  }

  const std::vector<CauseCounts>& causes() const { return causes_; }
  const QualityTotals& totals() const { return totals_; }

 private:
  std::vector<CauseCounts> causes_;
  QualityTotals totals_;
};

QualityTotals counters_now() {
  auto& reg = telemetry::Registry::instance();
  const auto kind = [&reg](const char* k) {
    return reg.counter("tapo_capture_artifacts_total", {{"kind", k}}).value();
  };
  QualityTotals t;
  t.duplicate = kind("duplicate");
  t.seq_gap = kind("seq_gap");
  t.truncated = kind("truncated");
  t.mid_stream = kind("mid_stream");
  t.suspect_stall = kind("suspect_stall");
  t.degraded = reg.counter("tapo_flows_degraded_total").value();
  return t;
}

struct ArmResult {
  StabilitySink sink;
  bool counters_ok = true;
};

/// Runs one (service, impairment) arm and cross-checks the telemetry
/// counter deltas against the sink's CaptureQuality sums.
ArmResult run_arm(workload::Service svc, std::size_t flows,
                  const sim::CaptureImpairments& imp,
                  const analysis::AnalyzerConfig& acfg) {
  const workload::ExperimentConfig cfg{.profile = workload::profile_for(svc),
                                       .flows = flows,
                                       .seed = kBenchSeed,
                                       .analyzer = acfg,
                                       .impairments = imp};
  workload::RunOptions options;
  options.threads = bench_threads();
  const QualityTotals before = counters_now();
  ArmResult arm;
  workload::ParallelRunner runner(cfg, std::move(options));
  runner.run(arm.sink);
  arm.counters_ok = (counters_now() - before) == arm.sink.totals();
  return arm;
}

struct Agreement {
  double overall = 1.0;  // fraction of flows with identical histograms
  std::array<double, analysis::kNumStallCauses> per_cause{};
};

Agreement compare(const std::vector<CauseCounts>& pristine,
                  const std::vector<CauseCounts>& impaired) {
  Agreement a;
  a.per_cause.fill(1.0);
  if (pristine.size() != impaired.size() || pristine.empty()) {
    a.overall = 0.0;
    a.per_cause.fill(0.0);
    return a;
  }
  const double n = static_cast<double>(pristine.size());
  std::size_t whole = 0;
  std::array<std::size_t, analysis::kNumStallCauses> match{};
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    if (pristine[i] == impaired[i]) ++whole;
    for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
      if (pristine[i][c] == impaired[i][c]) ++match[c];
    }
  }
  a.overall = static_cast<double>(whole) / n;
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    a.per_cause[c] = static_cast<double>(match[c]) / n;
  }
  return a;
}

struct Scenario {
  const char* name;
  sim::CaptureImpairments imp;
  /// Analyzer hardening knobs, applied to BOTH arms: the comparison always
  /// isolates what the channel did, never a config difference.
  analysis::AnalyzerConfig acfg;
  bool must_agree_100 = false;
  bool expect_degraded = false;  // injection must visibly degrade flows
};

std::vector<Scenario> scenarios() {
  using analysis::AnalyzerConfig;
  // Dup scenarios declare the capture as duplicating (suppression on);
  // quantization scenarios declare the capture clock's granularity
  // (analysis floors to it, so the coarse clock is provably harmless).
  const AnalyzerConfig dup_cfg{.dup_window = Duration::micros(1)};
  const AnalyzerConfig quant_cfg{.ts_quantum = Duration::micros(100)};
  const AnalyzerConfig combined_cfg{.dup_window = Duration::micros(1),
                                    .ts_quantum = Duration::micros(100)};

  std::vector<Scenario> s;
  s.push_back({"drop 1%", {.drop_prob = 0.01}, {}, false, true});
  s.push_back({"burst drop",
               {.burst_drop_prob = 0.005, .burst_continue_prob = 0.6},
               {}, false, true});
  s.push_back({"snaplen 54", {.snaplen = 54}, {}, false, true});
  s.push_back({"dup only 5%", {.dup_prob = 0.05}, dup_cfg, true, true});
  s.push_back({"reorder 5%", {.reorder_prob = 0.05}, {}, false, false});
  s.push_back({"quantize 100us", {.quantize = Duration::micros(100)},
               quant_cfg, true, false});
  s.push_back({"jitter 50us", {.jitter = Duration::micros(50)}, {}, false,
               false});
  s.push_back({"mid-stream", {.skip_first = 3}, {}, false, true});
  s.push_back({"combined",
               {.drop_prob = 0.01,
                .snaplen = 54,
                .dup_prob = 0.02,
                .quantize = Duration::micros(100)},
               combined_cfg, false, true});
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  tapo::bench::init_telemetry(argc, argv);
  // The counter cross-check needs the metrics registry live even when no
  // telemetry artifact directory was requested.
  telemetry::set_metrics_enabled(true);

  const std::size_t flows = flows_per_service(120);
  print_banner("Capture-robustness stability: pristine vs impaired TAPO",
               "capture-realism harness (paper §3 methodology)", flows);

  const auto services = {workload::Service::kCloudStorage,
                         workload::Service::kSoftwareDownload,
                         workload::Service::kWebSearch};
  const auto scens = scenarios();

  bool failed = false;
  stats::Table table;
  table.set_header({"scenario", "cloud s.", "software d.", "web search"});

  // Per-cause agreement for the combined scenario, per service.
  std::vector<Agreement> combined_agreements;

  std::vector<std::vector<std::string>> rows(scens.size());
  for (std::size_t i = 0; i < scens.size(); ++i) rows[i] = {scens[i].name};

  for (auto svc : services) {
    for (std::size_t i = 0; i < scens.size(); ++i) {
      const Scenario& sc = scens[i];
      // Per-scenario pristine baseline, analyzed with the scenario's own
      // analyzer config: the comparison isolates what the channel did.
      const auto pristine =
          run_arm(svc, flows, sim::CaptureImpairments{}, sc.acfg);
      const auto arm = run_arm(svc, flows, sc.imp, sc.acfg);
      if (!pristine.counters_ok) {
        std::printf("FAIL: counter/quality mismatch on pristine %s / %s\n",
                    workload::to_string(svc), sc.name);
        failed = true;
      }
      const Agreement agree =
          compare(pristine.sink.causes(), arm.sink.causes());
      const auto& t = arm.sink.totals();

      rows[i].push_back(str_format("%5.1f%%  (deg %llu)", agree.overall * 100,
                                   static_cast<unsigned long long>(t.degraded)));

      if (!arm.counters_ok) {
        std::printf("FAIL: counter/quality mismatch: %s / %s\n",
                    workload::to_string(svc), sc.name);
        failed = true;
      }
      if (sc.must_agree_100 && agree.overall < 1.0) {
        std::printf("FAIL: %s / %s agreement %.2f%% (must be 100%%)\n",
                    workload::to_string(svc), sc.name,
                    agree.overall * 100);
        failed = true;
      }
      if (sc.expect_degraded && t.degraded == 0) {
        std::printf("FAIL: %s / %s degraded no flow (injection inert?)\n",
                    workload::to_string(svc), sc.name);
        failed = true;
      }
      if (std::string(sc.name) == "combined") {
        combined_agreements.push_back(agree);
      }
    }
  }

  std::printf("\nPer-flow stall-classification agreement vs pristine "
              "(deg = flows with non-default CaptureQuality):\n");
  for (auto& r : rows) table.add_row(r);
  std::printf("%s", table.render().c_str());

  stats::Table causes;
  causes.set_header({"combined: per-cause agreement", "cloud s.",
                     "software d.", "web search"});
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    std::vector<std::string> row{
        analysis::to_string(static_cast<analysis::StallCause>(c))};
    for (const auto& a : combined_agreements) {
      row.push_back(str_format("%5.1f%%", a.per_cause[c] * 100));
    }
    causes.add_row(row);
  }
  std::printf("\n%s", causes.render().c_str());

  std::printf("\ncounter cross-check: tapo_capture_artifacts_total{kind} and "
              "tapo_flows_degraded_total deltas matched the summed "
              "per-flow CaptureQuality on every arm%s\n",
              failed ? " EXCEPT WHERE NOTED ABOVE" : "");

  tapo::bench::write_telemetry_artifacts();
  if (failed) {
    std::printf("\nRESULT: FAIL\n");
    return 1;
  }
  std::printf("\nRESULT: OK\n");
  return 0;
}
