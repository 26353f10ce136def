// Golden analysis and fleet digests: each service profile runs at seed 2015
// through workload::ParallelRunner with analysis on, plus one run under
// capture duplication and clock quantization with the analyzer's duplicate
// window and timestamp quantum set. Every FlowAnalysis field (samples,
// stall records, CaptureQuality) is hashed (FNV-1a), and so are the fleet
// report and the regression watch over the same runs' FlowRecords. The
// pipeline is deterministic, so a moved constant means a changed
// classification, sample or rendered figure — never a faster or slower
// analyzer. Senders/SimGolden.* pins the simulator under the same seed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/record_sink.h"
#include "fleet/window.h"
#include "sim/capture_channel.h"
#include "workload/experiment.h"
#include "workload/profiles.h"
#include "workload/runner.h"

namespace tapo::workload {
namespace {

constexpr std::uint64_t kSeed = 2015;

class Fnv1a {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const std::string& s) {
    word(s.size());
    for (const char c : s) word(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void fold_analysis(const analysis::FlowAnalysis& fa, Fnv1a& h) {
  h.word(fa.key.src_ip);
  h.word(fa.key.dst_ip);
  h.word(fa.key.src_port);
  h.word(fa.key.dst_port);
  h.word(static_cast<std::uint64_t>(fa.transmission_time.us()));
  h.word(fa.unique_bytes);
  h.word(fa.data_segments);
  h.word(fa.retrans_segments);
  h.real(fa.avg_speed_Bps);
  h.real(fa.avg_rtt_us);
  h.real(fa.avg_rto_us);
  h.word(fa.stalls.size());
  for (const analysis::StallRecord& s : fa.stalls) {
    h.word(static_cast<std::uint64_t>(s.start.us()));
    h.word(static_cast<std::uint64_t>(s.duration.us()));
    h.word(static_cast<std::uint64_t>(s.cause));
    h.word(static_cast<std::uint64_t>(s.retrans_cause));
    h.word(s.f_double);
    h.word(static_cast<std::uint64_t>(s.state_at_stall));
    h.word(s.in_flight);
    h.real(s.rel_position);
    h.word(s.cur_pkt_index);
    h.word(s.capture_suspect);
  }
  h.word(static_cast<std::uint64_t>(fa.stalled_time.us()));
  h.real(fa.stall_ratio);
  h.word(fa.init_rwnd_bytes);
  h.word(fa.init_rwnd_mss);
  h.word(fa.had_zero_rwnd);
  h.word(fa.inflight_on_ack.size());
  for (const std::uint32_t v : fa.inflight_on_ack) h.word(v);
  h.word(fa.timeout_retrans);
  h.word(fa.fast_retrans);
  h.word(fa.spurious_retrans);
  const analysis::CaptureQuality& q = fa.capture;
  h.word(q.dup_packets);
  h.word(q.seq_gaps);
  h.word(q.truncated_packets);
  h.word(q.mid_stream);
  h.word(q.suspect_stalls);
}

/// Hashes every analysis the runner delivers and turns each flow into the
/// fleet record a RecordSink would write.
class DigestSink : public FlowSink {
 public:
  explicit DigestSink(std::uint8_t service) : service_(service) {}

  void consume(FlowResult&& result) override {
    h_.word(result.index);
    h_.word(result.packets);
    h_.word(result.analyses.size());
    for (const analysis::FlowAnalysis& fa : result.analyses) {
      fold_analysis(fa, h_);
    }
    records_.push_back(fleet::make_flow_record(
        result, {.service = service_}));
  }

  std::uint64_t digest() const { return h_.value(); }
  const std::vector<fleet::FlowRecord>& records() const { return records_; }

 private:
  std::uint8_t service_;
  Fnv1a h_;
  std::vector<fleet::FlowRecord> records_;
};

struct GoldenCase {
  const char* name;
  ServiceProfile (*profile)();
  std::size_t flows;
  bool impaired;
  std::uint64_t analysis_digest;
  std::uint64_t report_digest;
  std::uint64_t regression_digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Ten-second fleet windows hold 20 flows at RecordSink's 500 ms spacing,
// so every run spans enough windows for the regression watch to flag.
const GoldenCase kCases[] = {
    {"CloudStorage", cloud_storage_profile, 300, false, 0xbc829b02dbe0f702,
     0xa8f971cd7f163b26, 0x8508e361e20404fc},
    {"SoftwareDownload", software_download_profile, 1000, false,
     0xc8fed654890f782c, 0xab21059ecc417948, 0x6d0d8efa9c3d324d},
    {"WebSearch", web_search_profile, 3000, false, 0x2d262d23cc81c7fa,
     0xd897aed61a89b70f, 0x99c51887b34abd26},
    {"CloudStorageDupQuantized", cloud_storage_profile, 150, true,
     0xccb0aa8a979f73cd, 0x89221f0806651cca, 0x614a899173ff689e},
};

class AnalysisGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AnalysisGolden, DigestsMatch) {
  const GoldenCase& c = GetParam();
  const ServiceProfile profile = c.profile();
  ExperimentConfig cfg{.profile = profile, .flows = c.flows, .seed = kSeed};
  if (c.impaired) {
    cfg.impairments = {.dup_prob = 0.05, .quantize = Duration::micros(100)};
    cfg.analyzer = {.dup_window = Duration::micros(1),
                    .ts_quantum = Duration::micros(100)};
  }
  DigestSink sink(static_cast<std::uint8_t>(profile.service));
  ParallelRunner(cfg).run(sink);

  fleet::WindowAggregator agg(
      fleet::FleetConfig{.window = Duration::seconds(10)});
  agg.ingest(sink.records());
  Fnv1a report;
  report.bytes(fleet::render_fleet_report(agg.snapshot()));
  Fnv1a regressions;
  const std::vector<fleet::Regression> regs =
      fleet::detect_regressions(agg.snapshot());
  regressions.word(regs.size());
  for (const fleet::Regression& r : regs) {
    regressions.word(static_cast<std::uint64_t>(r.window_index));
    regressions.word(r.service);
    regressions.word(r.cause);
    regressions.real(r.ratio);
    regressions.real(r.baseline);
    regressions.word(r.improved);
  }

  EXPECT_FALSE(regs.empty()) << "the regression watch flagged nothing";
  EXPECT_EQ(hex(sink.digest()), hex(c.analysis_digest)) << "flow analyses";
  EXPECT_EQ(hex(report.value()), hex(c.report_digest)) << "fleet report";
  EXPECT_EQ(hex(regressions.value()), hex(c.regression_digest))
      << "regression watch";
}

INSTANTIATE_TEST_SUITE_P(Profiles, AnalysisGolden, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace tapo::workload
