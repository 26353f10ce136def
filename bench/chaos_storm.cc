// Differential protocol chaos storm: hostile-network scenarios vs the
// runtime TCP invariant monitor.
//
// Every named chaos scenario in sim::ChaosScenario::catalog() is run with
// many derived seeds against each calibrated service profile, under all
// three recovery mechanisms {Native, TLP, S-RTO}. The same (scenario, seed)
// pair drives the identical workload and the identical hostile network for
// every mechanism, so any behavioral difference is attributable to the
// recovery algorithm alone — the paper's A/B methodology (§5.2) pointed at
// adversarial paths instead of production ones.
//
// Hard expectations (exit code 1 on violation):
//   * zero invariant violations (tcp::InvariantMonitor) across every flow;
//   * zero watchdog trips (FlowStatus::kSimDiverged) — no scenario may
//     drive the simulation into a runaway event loop;
//   * byte-stream delivery integrity: every completed flow's reassembled
//     stream hash equals the sent stream hash (DeliverySummary::intact);
//   * no silent wedges: a non-completed flow must be classified
//     kRwndLimited or kTimeCapped, never an unexplained state;
//   * the chaos engine visibly injected (otherwise the storm is inert);
//   * S-RTO spurious-retransmission budget: summed DSACK-reported spurious
//     retransmissions under S-RTO stay within a factor + slack of Native's
//     (the probe is allowed to be somewhat more aggressive — that is its
//     design — but must not blow up under hostile paths).
//
// Every failure line prints a single replay command:
//   bench/chaos_storm --replay-seed=<u64> --scenario=<name>
// which re-runs that one seeded scenario across all profiles and recovery
// modes with per-flow detail.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "sim/chaos.h"
#include "stats/table.h"
#include "tcp/invariants.h"
#include "telemetry/telemetry.h"
#include "util/env.h"
#include "util/strings.h"

using namespace tapo;
using namespace tapo::bench;

namespace {

const std::vector<workload::Service> kServices = {
    workload::Service::kCloudStorage, workload::Service::kSoftwareDownload,
    workload::Service::kWebSearch};

const std::vector<tcp::RecoveryMechanism> kModes = {
    tcp::RecoveryMechanism::kNative, tcp::RecoveryMechanism::kTlp,
    tcp::RecoveryMechanism::kSrto};

const char* mode_name(tcp::RecoveryMechanism m) {
  switch (m) {
    case tcp::RecoveryMechanism::kNative: return "native";
    case tcp::RecoveryMechanism::kTlp: return "tlp";
    case tcp::RecoveryMechanism::kSrto: return "s-rto";
  }
  return "?";
}

/// Deterministic per-(service, scenario, index) seed, independent of the
/// recovery mode so all three mechanisms replay the identical storm.
std::uint64_t storm_seed(std::size_t svc, std::size_t scen, std::size_t i) {
  Rng r(kBenchSeed ^ (static_cast<std::uint64_t>(svc + 1) << 40) ^
        (static_cast<std::uint64_t>(scen + 1) << 20) ^ (i + 1));
  return r.next_u64();
}

/// One seeded scenario instance under one recovery mode.
workload::FlowOutcome run_one(workload::Service svc,
                              tcp::RecoveryMechanism mode,
                              const sim::ChaosScenario& sc,
                              std::uint64_t seed) {
  const workload::ServiceProfile profile = workload::profile_for(svc);
  Rng rng(seed);
  workload::FlowScenario scenario =
      workload::draw_scenario(profile, rng, (seed & 0xffff) + 1);
  scenario.connection.sender.recovery = mode;

  workload::FlowGuards guards;
  guards.chaos = sc.config;
  // Per-instance reseed of the private copy (scenario_seed ^ storm seed).
  guards.chaos.seed ^= seed;
  guards.verify_delivery = true;
  guards.event_budget = workload::kDefaultEventBudget;
  guards.flow_id = seed;
  return workload::run_flow(scenario, rng.split(), Duration::seconds(600.0),
                            workload::TraceCapture::kNone, guards);
}

struct ModeTotals {
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t rwnd_limited = 0;
  std::uint64_t time_capped = 0;
  std::uint64_t diverged = 0;
  std::uint64_t violations = 0;
  std::uint64_t intact_failures = 0;
  std::uint64_t unexplained = 0;
  std::uint64_t injected = 0;
  std::uint64_t segments = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dsacks = 0;  // spurious retransmissions reported by peer
};

void replay_command(const sim::ChaosScenario& sc, std::uint64_t seed) {
  std::printf("  replay: bench/chaos_storm --replay-seed=%" PRIu64
              " --scenario=%s\n",
              seed, sc.name.c_str());
}

/// Full-detail verdict line for replay mode.
void print_detail(workload::Service svc, tcp::RecoveryMechanism mode,
                  const workload::FlowOutcome& out) {
  const auto& d = out.delivery;
  std::printf(
      "  %-18s %-6s  status=%-12s violations=%" PRIu64 " injected=%" PRIu64
      "  segs=%" PRIu64 " rexmit=%" PRIu64 " dsacks=%" PRIu64
      "  delivery=%s (%" PRIu64 "/%" PRIu64 " bytes, %" PRIu64 " holes)\n",
      workload::to_string(svc), mode_name(mode), to_string(out.status),
      out.invariant_violations, out.chaos_injected,
      out.sender_stats.segments_sent, out.sender_stats.retransmissions,
      out.sender_stats.dsacks_received,
      d ? (d->intact() ? "intact" : "CORRUPT") : "unchecked",
      d ? d->in_order_bytes : 0, d ? d->expected_bytes : 0,
      d ? d->hole_ranges : 0);
}

int run_replay(std::uint64_t seed, const std::string& scenario_name) {
  const sim::ChaosScenario* sc = sim::ChaosScenario::by_name(scenario_name);
  if (sc == nullptr) {
    std::printf("unknown scenario '%s'; catalog:", scenario_name.c_str());
    for (const auto& s : sim::ChaosScenario::catalog()) {
      std::printf(" %s", s.name.c_str());
    }
    std::printf("\n");
    return 2;
  }
  tcp::InvariantMonitor::set_enabled(true);
  std::printf("replaying scenario '%s' seed %" PRIu64
              " across %zu profiles x %zu recovery modes\n\n",
              sc->name.c_str(), seed, kServices.size(), kModes.size());
  bool failed = false;
  for (auto svc : kServices) {
    for (auto mode : kModes) {
      const auto out = run_one(svc, mode, *sc, seed);
      print_detail(svc, mode, out);
      const bool bad_delivery =
          out.status == FlowStatus::kCompleted && out.delivery &&
          !out.delivery->intact();
      if (out.invariant_violations > 0 ||
          out.status == FlowStatus::kSimDiverged || bad_delivery) {
        failed = true;
      }
    }
  }
  if (failed) {
    const auto recent = tcp::InvariantMonitor::recent();
    if (!recent.empty()) {
      std::printf("\nrecent invariant violations:\n");
      for (const auto& v : recent) {
        std::printf("  t=%+" PRId64 "us kind=%s seq=%u flow=%" PRIx64 "\n",
                    v.event_time_us, tcp::to_string(v.kind), v.seq, v.flow);
      }
    }
    std::printf("\nRESULT: FAIL\n");
    return 1;
  }
  std::printf("\nRESULT: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t replay_seed = 0;
  bool have_replay = false;
  std::string replay_scenario;
  tapo::bench::init_telemetry(argc, argv, {"--replay-seed=", "--scenario="},
                              "[--replay-seed=<u64> --scenario=<name>]");
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--replay-seed=", 14) == 0) {
      const auto parsed = util::parse_u64(argv[i] + 14);
      if (!parsed) {
        std::printf("bad --replay-seed value '%s'\n", argv[i] + 14);
        return 2;
      }
      replay_seed = *parsed;
      have_replay = true;
    } else if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      replay_scenario = argv[i] + 11;
    }
  }
  telemetry::set_metrics_enabled(true);
  if (have_replay || !replay_scenario.empty()) {
    if (!have_replay || replay_scenario.empty()) {
      std::printf("replay needs BOTH --replay-seed=<u64> and "
                  "--scenario=<name>\n");
      return 2;
    }
    return run_replay(replay_seed, replay_scenario);
  }

  const auto& catalog = sim::ChaosScenario::catalog();
  // Seeds per (service, scenario) cell. The default yields
  // 3 * |catalog| * 48 >= 1000 seeded scenario instances per recovery mode.
  const std::size_t per_cell = flows_per_service(48);
  const std::size_t instances = kServices.size() * catalog.size() * per_cell;

  print_banner("Protocol chaos storm: invariants + delivery integrity",
               "hostile-network differential harness (Native vs TLP vs S-RTO)",
               instances);
  std::printf("%zu scenarios x %zu profiles x %zu seeds = %zu instances "
              "per recovery mode\n\n",
              catalog.size(), kServices.size(), per_cell, instances);

  tcp::InvariantMonitor::set_enabled(true);
  tcp::InvariantMonitor::reset();

  bool failed = false;
  std::vector<ModeTotals> totals(kModes.size());

  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const auto mode = kModes[m];
    ModeTotals& t = totals[m];
    for (std::size_t s = 0; s < kServices.size(); ++s) {
      for (std::size_t c = 0; c < catalog.size(); ++c) {
        const sim::ChaosScenario& sc = catalog[c];
        for (std::size_t i = 0; i < per_cell; ++i) {
          const std::uint64_t seed = storm_seed(s, c, i);
          const auto out = run_one(kServices[s], mode, sc, seed);
          ++t.flows;
          t.violations += out.invariant_violations;
          t.injected += out.chaos_injected;
          t.segments += out.sender_stats.segments_sent;
          t.retransmissions += out.sender_stats.retransmissions;
          t.dsacks += out.sender_stats.dsacks_received;
          switch (out.status) {
            case FlowStatus::kCompleted: ++t.completed; break;
            case FlowStatus::kRwndLimited: ++t.rwnd_limited; break;
            case FlowStatus::kTimeCapped: ++t.time_capped; break;
            case FlowStatus::kSimDiverged: ++t.diverged; break;
          }
          if (out.invariant_violations > 0) {
            std::printf("FAIL: %" PRIu64 " invariant violation(s): %s / %s "
                        "/ %s\n",
                        out.invariant_violations,
                        workload::to_string(kServices[s]), sc.name.c_str(),
                        mode_name(mode));
            replay_command(sc, seed);
            failed = true;
          }
          if (out.status == FlowStatus::kSimDiverged) {
            std::printf("FAIL: simulation watchdog tripped: %s / %s / %s\n",
                        workload::to_string(kServices[s]), sc.name.c_str(),
                        mode_name(mode));
            replay_command(sc, seed);
            failed = true;
          }
          const bool completed = out.status == FlowStatus::kCompleted;
          if (completed && out.delivery && !out.delivery->intact()) {
            ++t.intact_failures;
            std::printf("FAIL: delivery integrity broken: %s / %s / %s "
                        "(%" PRIu64 "/%" PRIu64 " bytes, %" PRIu64
                        " holes, hash %s)\n",
                        workload::to_string(kServices[s]), sc.name.c_str(),
                        mode_name(mode), out.delivery->in_order_bytes,
                        out.delivery->expected_bytes,
                        out.delivery->hole_ranges,
                        out.delivery->delivered_hash ==
                                out.delivery->expected_hash
                            ? "ok"
                            : "MISMATCH");
            replay_command(sc, seed);
            failed = true;
          }
          if (!completed && out.status != FlowStatus::kRwndLimited &&
              out.status != FlowStatus::kTimeCapped &&
              out.status != FlowStatus::kSimDiverged) {
            ++t.unexplained;
            std::printf("FAIL: unexplained non-completion: %s / %s / %s\n",
                        workload::to_string(kServices[s]), sc.name.c_str(),
                        mode_name(mode));
            replay_command(sc, seed);
            failed = true;
          }
        }
      }
    }
  }

  stats::Table table;
  table.set_header({"recovery", "flows", "done", "rwnd-lim", "time-cap",
                    "diverged", "violations", "rexmit%", "dsacks"});
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const ModeTotals& t = totals[m];
    const double rex =
        t.segments ? 100.0 * static_cast<double>(t.retransmissions) /
                         static_cast<double>(t.segments)
                   : 0.0;
    table.add_row({mode_name(kModes[m]), str_format("%llu",
                       static_cast<unsigned long long>(t.flows)),
                   str_format("%llu", static_cast<unsigned long long>(t.completed)),
                   str_format("%llu", static_cast<unsigned long long>(t.rwnd_limited)),
                   str_format("%llu", static_cast<unsigned long long>(t.time_capped)),
                   str_format("%llu", static_cast<unsigned long long>(t.diverged)),
                   str_format("%llu", static_cast<unsigned long long>(t.violations)),
                   str_format("%5.2f", rex),
                   str_format("%llu", static_cast<unsigned long long>(t.dsacks))});
  }
  std::printf("%s", table.render().c_str());

  // Global cross-checks.
  const std::uint64_t monitor_total = tcp::InvariantMonitor::total_violations();
  std::uint64_t sink_total = 0, injected_total = 0;
  for (const auto& t : totals) {
    sink_total += t.violations;
    injected_total += t.injected;
  }
  if (monitor_total != sink_total) {
    std::printf("FAIL: monitor counted %" PRIu64
                " violations but flow attribution summed %" PRIu64 "\n",
                monitor_total, sink_total);
    failed = true;
  }
  if (injected_total == 0) {
    std::printf("FAIL: the chaos engine injected nothing (storm inert?)\n");
    failed = true;
  }

  // S-RTO spurious-retransmission budget vs Native. S-RTO probes earlier
  // than the RTO by design, so some extra DSACK-reported spurious
  // retransmissions are expected (Table 9's 0.9% vs 0.6%); the budget
  // catches it going pathological under hostile paths.
  const ModeTotals& native = totals[0];
  const ModeTotals& srto = totals[2];
  const std::uint64_t budget =
      native.dsacks * 2 + native.flows / 10 + 50;
  std::printf("\nS-RTO spurious budget: dsacks native=%" PRIu64
              " tlp=%" PRIu64 " s-rto=%" PRIu64 " (budget %" PRIu64 ")\n",
              native.dsacks, totals[1].dsacks, srto.dsacks, budget);
  if (srto.dsacks > budget) {
    std::printf("FAIL: S-RTO spurious retransmissions %" PRIu64
                " exceed budget %" PRIu64 " (native %" PRIu64 ")\n",
                srto.dsacks, budget, native.dsacks);
    failed = true;
  }

  std::printf("\ninvariant monitor: %" PRIu64 " violations across %" PRIu64
              " chaos-injected packet mutations\n",
              monitor_total, injected_total);

  tapo::bench::write_telemetry_artifacts();
  if (failed) {
    std::printf("\nRESULT: FAIL\n");
    return 1;
  }
  std::printf("\nRESULT: OK\n");
  return 0;
}
