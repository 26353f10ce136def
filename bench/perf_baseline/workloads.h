// The four benchmark workloads. Each runs in its own process (see main.cc):
// the pcap_* captures are produced by a separate `prepare` process, so their
// generation never shows in the workload's peak RSS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perf {

inline constexpr std::uint64_t kDefaultSeed = 2015;

/// sim_web, sim_cloud, pcap_batch, pcap_stream.
const std::vector<std::string>& workload_names();
bool is_pcap_workload(const std::string& name);

/// One pcap_* capture file and the reference it is checked against: the
/// file read back whole with pcap::read_file, demuxed with
/// demux_flow_views and analyzed flow by flow.
struct CaptureRef {
  std::string path;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t skipped = 0;
  std::string digest;
};

/// What the prepare step wrote and measured.
struct CaptureSet {
  double setup_s = 0.0;        // median nominal time to simulate + write one
  std::uint64_t diverged = 0;  // simulated flows stopped by the watchdog
  std::vector<CaptureRef> captures;

  std::string to_json() const;
  /// Reads what to_json() wrote; throws std::runtime_error if malformed.
  static CaptureSet load(const std::string& path);
};

/// Simulates the pcap_* captures from `seed` into `<prefix>.<k>.pcap`
/// (timing each) and computes their references.
CaptureSet prepare_captures(std::uint64_t seed, const std::string& prefix);

struct MeasureOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes spans.json and layers.json ("" = nowhere).
  std::string trace_out;
  CaptureSet captures;  // pcap_* only
};

/// Runs one workload in this process. Untraced: the end-to-end metrics
/// (pcap_* leave setup_s to the prepare step). Traced: the per-layer
/// metrics named in BENCHMARK.json, plus the full layer table.
WorkloadResult measure(const MeasureOptions& opts);

}  // namespace perf
