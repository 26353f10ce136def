// Sharded parallel experiment runner with a streaming result-sink API.
//
// Why: the serial harness buffers every FlowOutcome/FlowAnalysis in RAM and
// uses one core, which caps sweeps far below the paper's 6.4M-flow scale.
// Each flow already lives in a private sim::Simulator, so the runner shards
// flows across a util::WorkerPool and streams results out as they complete.
//
// Determinism contract: the per-flow RNG is a pure function of
// (config.seed, flow_index) — seed i is the i-th split of a master
// xoshiro256** stream seeded with config.seed, precomputed in one O(flows)
// prologue. Workers claim indices dynamically, but every flow draws its
// scenario and link noise from its own precomputed stream, and completed
// flows are re-ordered through a small pending buffer so the sink observes
// strict flow-index order. Result: parallel output is bit-identical to the
// serial path for any thread count.
//
// Sink contract: FlowSink::consume is invoked exactly once per flow, in
// ascending index order, from one thread at a time (under the runner's
// merge lock) — sinks need no internal synchronization. Debug builds
// assert the mutual exclusion (run() keeps an entrant count around the
// merge section), and the TSan suite exercises a sink that mutates
// unsynchronized state from an 8-thread run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/cdf.h"
#include "tapo/report.h"
#include "tapo/sink.h"
#include "workload/experiment.h"

namespace tapo::workload {

// Re-exports: the result/sink surface lives in tapo/sink.h so the
// streaming LiveAnalyzer and the CSV writers share it (one delivery API
// for offline, parallel, and live analysis). Historical names preserved.
using FlowResult = tapo::FlowResult;
using RunStats = tapo::RunStats;
using FlowSink = tapo::FlowSink;

struct RunOptions {
  /// Worker threads: 1 = serial in the calling thread (no pool), 0 = all
  /// hardware threads. Clamped to the flow count.
  std::size_t threads = 1;
};

class ParallelRunner {
 public:
  explicit ParallelRunner(ExperimentConfig config, RunOptions options = {});

  /// Runs all flows, streaming results into `sink` in flow-index order.
  /// Validates the config up front (std::invalid_argument on a bad one).
  RunStats run(FlowSink& sink);

 private:
  ExperimentConfig config_;
  RunOptions options_;
};

/// Derives the per-flow RNG seeds for (seed, flows): seeds[i] is the seed
/// of the i-th master split — the scheme both the serial and the sharded
/// path use. Exposed for tests and external shard schedulers.
std::vector<std::uint64_t> derive_flow_seeds(std::uint64_t seed,
                                             std::size_t flows);

/// Sink that rebuilds the buffering ExperimentResult (compatibility layer
/// used by run_experiment).
class CollectingSink : public FlowSink {
 public:
  void consume(FlowResult&& result) override;
  ExperimentResult take() { return std::move(result_); }

 private:
  ExperimentResult result_;
};

/// Bounded-memory aggregating sink: folds each flow into the paper's
/// stall/retransmission breakdown tables, the Fig.-3 stall-ratio CDF and
/// the Table-9 retransmission ratio without retaining any per-flow
/// analysis.
class BreakdownSink : public FlowSink {
 public:
  void consume(FlowResult&& result) override;

  const analysis::StallBreakdown& stalls() const { return stalls_; }
  const analysis::RetransBreakdown& retrans() const { return retrans_; }
  const stats::Cdf& stall_ratio_cdf() const { return stall_ratio_; }
  std::uint64_t flows() const { return flows_; }
  std::uint64_t total_packets() const { return total_packets_; }
  std::uint64_t data_segments_sent() const { return data_segments_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  double retrans_ratio() const {
    return data_segments_sent_ ? static_cast<double>(retransmissions_) /
                                     static_cast<double>(data_segments_sent_)
                               : 0.0;
  }

 private:
  analysis::StallBreakdown stalls_;
  analysis::RetransBreakdown retrans_;
  stats::Cdf stall_ratio_;
  std::uint64_t flows_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t data_segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace tapo::workload
