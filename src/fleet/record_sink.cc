#include "fleet/record_sink.h"

#include "telemetry/telemetry.h"

namespace tapo::fleet {

RecordSinkConfig& RecordSinkConfig::with_shard_id(std::uint32_t id) {
  shard_id = id;
  return *this;
}

RecordSinkConfig& RecordSinkConfig::with_service(std::uint8_t s) {
  service = s;
  return *this;
}

RecordSinkConfig& RecordSinkConfig::with_base_time_us(std::int64_t t) {
  base_time_us = t;
  return *this;
}

FlowRecord make_flow_record(const tapo::FlowResult& result,
                            const RecordSinkConfig& cfg) {
  FlowRecord r;
  r.shard_id = cfg.shard_id;
  r.service = cfg.service;
  r.flow_index = result.index;
  r.start_us = cfg.base_time_us +
               static_cast<std::int64_t>(result.index) * kFlowSpacing.us();
  r.completed = result.outcome.completed;
  r.response_bytes = result.outcome.response_bytes;
  r.packets = result.packets;
  r.init_rwnd_bytes = result.outcome.init_rwnd_bytes;
  if (!result.analyses.empty()) {
    const analysis::FlowAnalysis& fa = result.analyses.front();
    r.transmission_us = fa.transmission_time.us();
    r.stalled_us = fa.stalled_time.us();
    r.unique_bytes = fa.unique_bytes;
    r.data_segments = fa.data_segments;
    r.retrans_segments = fa.retrans_segments;
    r.timeout_retrans = fa.timeout_retrans;
    r.fast_retrans = fa.fast_retrans;
    r.spurious_retrans = fa.spurious_retrans;
    if (fa.init_rwnd_bytes != 0) r.init_rwnd_bytes = fa.init_rwnd_bytes;
    r.had_zero_rwnd = fa.had_zero_rwnd;
    r.degraded = fa.capture.degraded();
    r.suspect_stalls = fa.capture.suspect_stalls;
    r.avg_rtt_us = fa.avg_rtt_us;
    r.avg_rto_us = fa.avg_rto_us;
    r.stalls.reserve(fa.stalls.size());
    for (const analysis::StallRecord& s : fa.stalls) {
      StallEntry e;
      e.cause = static_cast<std::uint8_t>(s.cause);
      e.retrans_cause = static_cast<std::uint8_t>(s.retrans_cause);
      e.duration_us = s.duration.us();
      r.stalls.push_back(e);
    }
  }
  return r;
}

RecordSink::RecordSink(RecordWriter& writer, RecordSinkConfig cfg)
    : writer_(writer), cfg_(cfg) {}

void RecordSink::consume(tapo::FlowResult&& result) {
  const std::uint64_t bytes_before = writer_.bytes();
  writer_.write(make_flow_record(result, cfg_));
  ++emitted_;
  if (telemetry::metrics_enabled()) {
    static auto& records_total = telemetry::Registry::instance().counter(
        "fleet_records_emitted_total");
    static auto& bytes_total = telemetry::Registry::instance().counter(
        "fleet_record_bytes_total");
    records_total.add(1);
    bytes_total.add(writer_.bytes() - bytes_before);
  }
}

void RecordSink::finish(const tapo::RunStats& stats) {
  (void)stats;
  writer_.flush();
}

}  // namespace tapo::fleet
