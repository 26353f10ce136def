// RecordSink: the bridge from the per-flow analysis pipeline to the fleet
// aggregation tier. It implements the shared tapo::FlowSink surface, so
// the parallel experiment runner (or the live analyzer) can act as one
// "server shard": every FlowResult is reduced to a compact FlowRecord and
// streamed through a RecordWriter — bounded memory, no per-flow state
// retained.
//
// Logical time: simulated flows each start at t=0 in their own private
// simulator, so the sink stamps record start times as
// base_time_us + flow_index * kFlowSpacing, modelling a shard that admits
// flows at a steady rate. The stamp is a pure function of (config, flow
// index); combined with the runner's in-order delivery contract this
// makes a shard's record file byte-identical across runs and thread
// counts.
#pragma once

#include <cstdint>

#include "fleet/record.h"
#include "tapo/sink.h"
#include "util/time.h"

namespace tapo::fleet {

struct RecordSinkConfig {
  std::uint32_t shard_id = 0;
  /// workload::Service index (see fleet::service_name); plain integer so
  /// the fleet tier does not depend on the workload layer.
  std::uint8_t service = 0;
  /// Logical capture time of flow 0; flow i starts at
  /// base_time_us + i * kFlowSpacing.
  std::int64_t base_time_us = 0;

  // Kept only because bench/perf_baseline/workloads.cc builds its config
  // with it; everything else assigns the field.
  RecordSinkConfig& with_service(std::uint8_t s) {
    service = s;
    return *this;
  }
};

/// Logical inter-flow arrival spacing of the records a sink writes.
inline constexpr Duration kFlowSpacing = Duration::millis(500);

/// Pure reduction of one FlowResult to its fleet record (exposed for
/// tests). Uses the first analysis when present; a trace-less or
/// analysis-off result still yields a record with the simulation-level
/// facts filled in.
FlowRecord make_flow_record(const tapo::FlowResult& result,
                            const RecordSinkConfig& cfg);

class RecordSink : public tapo::FlowSink {
 public:
  /// The writer must outlive the sink; several sinks may share one writer
  /// to put multiple runs in one shard file.
  RecordSink(RecordWriter& writer, RecordSinkConfig cfg);

  void consume(tapo::FlowResult&& result) override;
  void finish(const tapo::RunStats& stats) override;

  std::uint64_t records() const { return emitted_; }

 private:
  RecordWriter& writer_;
  RecordSinkConfig cfg_;
  std::uint64_t emitted_ = 0;
};

}  // namespace tapo::fleet
