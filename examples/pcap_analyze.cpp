// TAPO command-line tool: analyze TCP stalls in a pcap capture.
//
// This is the reproduction of the paper's publicly released tool: point it
// at a server-side capture and it prints per-flow stall diagnoses plus the
// aggregate Table-3 / Table-5 breakdowns.
//
//   pcap_analyze <capture.pcap> [--server-port N] [--tau X] [--summary]
//   pcap_analyze --demo [out.pcap]     # generate a demo capture first
//
// The capture may come from tcpdump (Ethernet, raw-IP and loopback
// linktypes are supported) or from this library's own simulator.
#include <cstdio>
#include <cstring>
#include <string>

#include "pcap/pcap.h"
#include "tapo/csv.h"
#include "tapo/live.h"
#include "stats/table.h"
#include "tapo/analyzer.h"
#include "tapo/report.h"
#include "util/env.h"
#include "util/strings.h"
#include "workload/experiment.h"
#include "workload/runner.h"

using namespace tapo;

namespace {

void print_usage() {
  std::printf(
      "usage: pcap_analyze <capture.pcap> [--server-port N] [--tau X] "
      "[--summary] [--csv PREFIX] [--live] [--mem-budget BYTES]\n"
      "       pcap_analyze --demo [out.pcap]   generate & analyze a demo "
      "capture\n"
      "\n"
      "  --mem-budget BYTES  cap pipeline residency (chunks in flight +\n"
      "                      buffered flow state); 0 = unlimited. Also read\n"
      "                      from TAPO_MEM_BUDGET; the flag wins. Budgeted\n"
      "                      runs use --live's engine and evict the least\n"
      "                      recently active flows instead of growing.\n");
}

std::string make_demo(const std::string& path) {
  // Simulate a handful of lossy software-download flows into one pcap.
  net::PacketTrace all;
  auto profile = workload::software_download_profile();
  Rng master(42);
  for (int i = 0; i < 8; ++i) {
    Rng flow_rng = master.split();
    const auto scenario =
        workload::draw_scenario(profile, flow_rng, static_cast<std::uint64_t>(i + 1));
    const auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    for (const auto& pkt : outcome.trace->packets()) all.add(pkt);
  }
  all.sort_by_time();
  pcap::write_file(path, all);
  std::printf("wrote demo capture with %zu packets to %s\n\n", all.size(),
              path.c_str());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }

  std::string path;
  analysis::AnalyzerConfig config;
  analysis::DemuxOptions demux;
  bool summary_only = false;
  bool live_mode = false;
  std::size_t mem_budget = util::env_size("TAPO_MEM_BUDGET", 0);
  std::string csv_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      // Only consume the next token as the output path if it is not a flag.
      const bool has_path = i + 1 < argc && argv[i + 1][0] != '-';
      path = make_demo(has_path ? argv[++i] : "/tmp/tapo_demo.pcap");
    } else if (arg == "--server-port" && i + 1 < argc) {
      const auto port = tapo::util::parse_u64(argv[++i]);
      if (!port || *port == 0 || *port > 65535) {
        std::fprintf(stderr, "error: --server-port must be 1..65535\n");
        return 1;
      }
      demux.server_port = static_cast<std::uint16_t>(*port);
    } else if (arg == "--tau" && i + 1 < argc) {
      const auto tau = tapo::util::parse_double(argv[++i]);
      if (!tau || *tau <= 0.0) {
        std::fprintf(stderr, "error: --tau must be a positive number\n");
        return 1;
      }
      config.tau = *tau;
    } else if (arg == "--summary") {
      summary_only = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_prefix = argv[++i];
    } else if (arg == "--live") {
      live_mode = true;
    } else if (arg == "--mem-budget" && i + 1 < argc) {
      const auto bytes = tapo::util::parse_u64(argv[++i]);
      if (!bytes) {
        std::fprintf(stderr,
                     "error: --mem-budget must be a byte count (0 = "
                     "unlimited)\n");
        return 1;
      }
      mem_budget = static_cast<std::size_t>(*bytes);
    } else if (arg[0] != '-') {
      path = arg;
    } else {
      print_usage();
      return 1;
    }
  }
  if (path.empty()) {
    print_usage();
    return 1;
  }

  // One ingest surface for every mode: the chunked streaming reader. A
  // budgeted or --live run hands each sealed chunk straight to the live
  // analyzer and drops it (bounded residency, files larger than RAM are
  // fine); the plain batch run retains the chunks and analyzes them with
  // the same engine — bit-identical output either way.
  util::MemoryBudget budget(mem_budget);
  if (mem_budget != 0) live_mode = true;
  analysis::AnalysisResult result;
  pcap::ReadStats rstats;
  try {
    pcap::StreamingReader reader(path, pcap::StreamingOptions{
                                           .budget = &budget});
    if (live_mode) {
      workload::CollectingSink sink;
      analysis::LiveAnalyzer live(
          {.analyzer = config, .demux = demux, .mem_budget = &budget}, sink);
      while (auto chunk = reader.next_chunk()) live.add_chunk(*chunk);
      rstats = reader.stats();
      std::printf("%s: %zu records, %zu TCP packets (%zu skipped)\n",
                  path.c_str(), rstats.records, rstats.tcp_packets,
                  rstats.skipped);
      live.flush();
      result.flows = sink.take().analyses;
      std::printf("%zu flows finalized (live mode; %llu packets, peak table "
                  "%zu flows, peak resident %zu bytes%s)\n\n",
                  result.flows.size(),
                  static_cast<unsigned long long>(live.stats().packets),
                  live.stats().peak_active_flows, budget.high_water(),
                  mem_budget != 0 ? ", budgeted" : "");
    } else {
      net::ChunkedTrace chunks(net::ChunkedTrace::kDefaultChunkPackets,
                               nullptr, &budget);
      while (auto chunk = reader.next_chunk()) {
        for (const auto& pkt : chunk->packets()) chunks.add(pkt);
      }
      rstats = reader.stats();
      std::printf("%s: %zu records, %zu TCP packets (%zu skipped)\n",
                  path.c_str(), rstats.records, rstats.tcp_packets,
                  rstats.skipped);
      analysis::Analyzer analyzer(config);
      result = analyzer.analyze(chunks, demux);
      std::printf("%zu flows reconstructed\n\n", result.flows.size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!csv_prefix.empty()) {
    try {
      analysis::write_flows_csv_file(csv_prefix + "_flows.csv", result.flows);
      analysis::write_stalls_csv_file(csv_prefix + "_stalls.csv", result.flows);
      std::printf("wrote %s_flows.csv and %s_stalls.csv\n\n",
                  csv_prefix.c_str(), csv_prefix.c_str());
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      return 1;
    }
  }

  if (!summary_only) {
    for (const auto& fa : result.flows) {
      std::printf("%s\n", analysis::describe_flow(fa).c_str());
    }
  }

  // Aggregate summaries (Table 3 / Table 5 form).
  const auto bd = analysis::make_stall_breakdown(result.flows);
  const auto rbd = analysis::make_retrans_breakdown(result.flows);
  const auto sum = analysis::make_service_summary(result.flows);

  std::printf("== aggregate ==\n");
  std::printf("flows=%llu avg_speed=%s/s pkt_loss=%s avg_rtt=%s avg_rto=%s\n",
              static_cast<unsigned long long>(sum.flows),
              human_bytes(sum.avg_speed_Bps).c_str(),
              pct(sum.pkt_loss).c_str(), human_us(sum.avg_rtt_us).c_str(),
              human_us(sum.avg_rto_us).c_str());
  std::printf("stalls: %llu total, %.1fs stalled time\n",
              static_cast<unsigned long long>(bd.total_count),
              bd.total_time.sec());

  stats::Table t("\nstall causes (volume / time):");
  t.set_header({"cause", "volume", "time"});
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    const auto cause = static_cast<analysis::StallCause>(c);
    if (bd.by_cause[c].count == 0) continue;
    t.add_row({analysis::to_string(cause), pct(bd.volume_fraction(cause)),
               pct(bd.time_fraction(cause))});
  }
  std::printf("%s", t.render().c_str());

  if (rbd.total_count > 0) {
    stats::Table rt("\ntimeout-retransmission stall causes (volume / time):");
    rt.set_header({"cause", "volume", "time"});
    for (std::size_t c = 0; c < analysis::kNumRetransCauses; ++c) {
      const auto cause = static_cast<analysis::RetransCause>(c);
      if (rbd.by_cause[c].count == 0) continue;
      rt.add_row({analysis::to_string(cause), pct(rbd.volume_fraction(cause)),
                  pct(rbd.time_fraction(cause))});
    }
    std::printf("%s", rt.render().c_str());
  }
  return 0;
}
