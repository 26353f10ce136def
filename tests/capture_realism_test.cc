// Capture-realism tests: the sim::apply_impairments capture stage, the
// degradation-aware analyzer properties it enables, config validation,
// the unified FlowSink delivery surface, and the pcap snaplen regression
// fixture.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "pcap/pcap.h"
#include "sim/capture_channel.h"
#include "tapo/live.h"
#include "tapo/tapo.h"
#include "telemetry/telemetry.h"
#include "workload/experiment.h"
#include "workload/runner.h"

#include "support/analysis_collector.h"

namespace tapo {
namespace {

net::CapturedPacket make_pkt(std::int64_t us, std::uint32_t seq,
                             std::uint32_t payload, bool from_server) {
  net::CapturedPacket p;
  p.timestamp = TimePoint::from_us(us);
  if (from_server) {
    p.key = {net::ipv4_from_string("192.168.1.1"),
             net::ipv4_from_string("10.0.0.1"), 80, 40000};
  } else {
    p.key = {net::ipv4_from_string("10.0.0.1"),
             net::ipv4_from_string("192.168.1.1"), 40000, 80};
  }
  p.tcp.seq = net::Seq32{seq};
  p.tcp.ack = net::Seq32{1};
  p.tcp.flags.ack = true;
  p.tcp.window = 1000;
  p.payload_len = payload;
  return p;
}

net::PacketTrace make_trace(std::size_t n) {
  net::PacketTrace trace;
  for (std::size_t i = 0; i < n; ++i) {
    trace.add(make_pkt(1000 * static_cast<std::int64_t>(i) + 7,
                       static_cast<std::uint32_t>(1 + i * 1448),
                       i % 2 == 0 ? 1448 : 0, i % 2 == 0));
  }
  return trace;
}

/// Turns metrics on for one test and off, zeroed, after it, so the test can
/// read what the channel counted in tapo_capture_injected_total.
struct MetricsOn {
  MetricsOn() {
    telemetry::disable_and_reset_all();
    telemetry::set_metrics_enabled(true);
  }
  ~MetricsOn() { telemetry::disable_and_reset_all(); }
};

std::uint64_t injected(const char* kind) {
  return telemetry::Registry::instance()
      .counter("tapo_capture_injected_total", {{"kind", kind}})
      .value();
}

bool same_record(const net::CapturedPacket& a, const net::CapturedPacket& b) {
  return a.timestamp == b.timestamp && a.key == b.key &&
         a.tcp.seq == b.tcp.seq && a.tcp.ack == b.tcp.ack &&
         a.payload_len == b.payload_len && a.truncated == b.truncated &&
         a.tcp.window == b.tcp.window &&
         a.tcp.sack_blocks.size() == b.tcp.sack_blocks.size();
}

// ---------------------------------------------------------------------------
// CaptureChannel unit behavior
// ---------------------------------------------------------------------------

TEST(CaptureChannel, OffIsBitIdenticalClone) {
  const auto trace = make_trace(50);
  sim::CaptureImpairments off;
  EXPECT_FALSE(off.enabled());
  const MetricsOn metrics;
  const auto out = sim::apply_impairments(trace, off);
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(same_record(trace[i], out[i])) << "record " << i;
  }
  for (const char* kind :
       {"mid_stream_skip", "drop", "reorder", "truncate", "duplicate"}) {
    EXPECT_EQ(injected(kind), 0u) << kind;
  }
}

TEST(CaptureChannel, SameSeedSameOutput) {
  const auto trace = make_trace(200);
  const sim::CaptureImpairments imp{
      .drop_prob = 0.3, .dup_prob = 0.2, .reorder_prob = 0.2, .seed = 42};
  const auto a = sim::apply_impairments(trace, imp);
  const auto b = sim::apply_impairments(trace, imp);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_record(a[i], b[i])) << "record " << i;
  }
}

TEST(CaptureChannel, DropRemovesRecords) {
  const auto trace = make_trace(400);
  const MetricsOn metrics;
  const auto out = sim::apply_impairments(trace, {.drop_prob = 0.5});
  EXPECT_LT(out.size(), trace.size());
  EXPECT_EQ(injected("drop"), trace.size() - out.size());
}

TEST(CaptureChannel, BurstDropRemovesRuns) {
  const auto trace = make_trace(400);
  const MetricsOn metrics;
  const auto out = sim::apply_impairments(
      trace, {.burst_drop_prob = 0.1, .burst_continue_prob = 0.8});
  EXPECT_LT(out.size(), trace.size());
  EXPECT_EQ(injected("drop"), trace.size() - out.size());
}

TEST(CaptureChannel, DuplicationEmitsAdjacentIdenticalCopies) {
  const auto trace = make_trace(200);
  const MetricsOn metrics;
  const auto out = sim::apply_impairments(trace, {.dup_prob = 0.5});
  const std::uint64_t duplicated = injected("duplicate");
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(out.size(), trace.size() + duplicated);
  // Every duplicate is adjacent to and identical with its original,
  // timestamp included (mirror-port semantics).
  std::size_t found = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (same_record(out[i - 1], out[i])) ++found;
  }
  EXPECT_EQ(found, duplicated);
}

TEST(CaptureChannel, InjectedCounterFollowsTheMetricsSwitch) {
  const auto trace = make_trace(200);
  const sim::CaptureImpairments imp{.dup_prob = 0.5};

  // Off: the channel still duplicates, but never touches the registry.
  telemetry::disable_and_reset_all();
  const auto off = sim::apply_impairments(trace, imp);
  EXPECT_GT(off.size(), trace.size());
  EXPECT_EQ(injected("duplicate"), 0u);

  // On: one count per extra copy.
  const MetricsOn metrics;
  const auto on = sim::apply_impairments(trace, imp);
  EXPECT_EQ(injected("duplicate"), on.size() - trace.size());
}

TEST(CaptureChannel, SnaplenCutsTailOptions) {
  net::PacketTrace trace;
  auto p = make_pkt(1000, 1, 0, false);
  p.tcp.sack_blocks = {{net::Seq32{2897}, net::Seq32{4345}},
                       {net::Seq32{5793}, net::Seq32{7241}}};
  trace.add(p);
  const MetricsOn metrics;
  // 40 wire bytes = IPv4 + fixed TCP header: every option is cut.
  const auto out = sim::apply_impairments(trace, {.snaplen = 40});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].truncated);
  EXPECT_EQ(out[0].tcp.sack_blocks.size(), 0u);
  EXPECT_EQ(injected("truncate"), 1u);
  // Lengths still reflect the wire packet (pcap reader model).
  EXPECT_EQ(out[0].payload_len, trace[0].payload_len);
}

TEST(CaptureChannel, ReorderSwapsAdjacentRecords) {
  const auto trace = make_trace(200);
  const MetricsOn metrics;
  const auto out = sim::apply_impairments(trace, {.reorder_prob = 0.5});
  ASSERT_EQ(out.size(), trace.size());
  const std::uint64_t reordered = injected("reorder");
  EXPECT_GT(reordered, 0u);
  // Same multiset of records: every input appears exactly once.
  std::size_t displaced = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!same_record(out[i], trace[i])) ++displaced;
  }
  EXPECT_GT(displaced, 0u);
  EXPECT_LE(displaced, 2 * reordered);
}

TEST(CaptureChannel, QuantizeFloorsTimestamps) {
  const auto trace = make_trace(50);
  const auto out =
      sim::apply_impairments(trace, {.quantize = Duration::micros(100)});
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].timestamp.us() % 100, 0);
    EXPECT_LE(out[i].timestamp, trace[i].timestamp);
    EXPECT_GT(out[i].timestamp + Duration::micros(100), trace[i].timestamp);
  }
}

TEST(CaptureChannel, JitterIsBounded) {
  const auto trace = make_trace(50);
  const auto out =
      sim::apply_impairments(trace, {.jitter = Duration::micros(50)});
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto delta = (out[i].timestamp - trace[i].timestamp).us();
    EXPECT_LE(delta, 50);
    EXPECT_GE(delta, -50);
  }
}

TEST(CaptureChannel, MidStreamStartSkipsHead) {
  const auto trace = make_trace(50);
  const MetricsOn metrics;
  const auto out = sim::apply_impairments(trace, {.skip_first = 3});
  ASSERT_EQ(out.size(), trace.size() - 3);
  EXPECT_EQ(injected("mid_stream_skip"), 3u);
  EXPECT_TRUE(same_record(out[0], trace[3]));
}

TEST(CaptureChannel, BuilderValidationThrows) {
  // Every out-of-range field is caught by validate(), and so by
  // apply_impairments, which validates before it reads a record.
  const std::vector<std::pair<const char*, sim::CaptureImpairments>> bad = {
      {"drop_prob 1", {.drop_prob = 1.0}},
      {"drop_prob -0.1", {.drop_prob = -0.1}},
      {"drop_prob 2", {.drop_prob = 2.0}},
      {"burst_drop_prob 1.5",
       {.burst_drop_prob = 1.5, .burst_continue_prob = 0.5}},
      {"burst_continue_prob 1",
       {.burst_drop_prob = 0.1, .burst_continue_prob = 1.0}},
      {"snaplen 39", {.snaplen = 39}},
      {"dup_prob 1", {.dup_prob = 1.0}},
      {"reorder_prob -0.5", {.reorder_prob = -0.5}},
      {"quantize -1us", {.quantize = Duration::micros(-1)}},
      {"jitter -1us", {.jitter = Duration::micros(-1)}},
  };
  for (const auto& [what, imp] : bad) {
    EXPECT_THROW(imp.validate(), std::invalid_argument) << what;
    EXPECT_THROW(sim::apply_impairments(net::PacketTrace{}, imp),
                 std::invalid_argument)
        << what;
  }

  // The experiment's validate() checks its impairments too.
  workload::ExperimentConfig cfg{.profile = workload::web_search_profile()};
  EXPECT_NO_THROW(cfg.validate());
  cfg.impairments.drop_prob = 2.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // apply_impairments validates a config that reads as disabled, too.
  sim::CaptureImpairments negative;
  negative.drop_prob = -0.1;
  EXPECT_FALSE(negative.enabled());
  EXPECT_THROW(sim::apply_impairments(net::PacketTrace{}, negative),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Degradation-aware analysis properties
// ---------------------------------------------------------------------------

using CauseList = std::vector<std::vector<analysis::StallCause>>;

CauseList run_causes(workload::Service svc, std::size_t flows,
                     const sim::CaptureImpairments& imp,
                     const analysis::AnalyzerConfig& acfg) {
  const workload::ExperimentConfig cfg{.profile = workload::profile_for(svc),
                                       .flows = flows,
                                       .seed = 2015,
                                       .analyzer = acfg,
                                       .impairments = imp};
  workload::CollectingSink sink;
  workload::ParallelRunner(cfg, {}).run(sink);
  CauseList out;
  for (const auto& fa : sink.take().analyses) {
    std::vector<analysis::StallCause> causes;
    for (const auto& s : fa.stalls) causes.push_back(s.cause);
    out.push_back(std::move(causes));
  }
  return out;
}

const workload::Service kAllServices[] = {
    workload::Service::kCloudStorage, workload::Service::kSoftwareDownload,
    workload::Service::kWebSearch};

TEST(CaptureRealism, DupOnlyClassifiesIdenticallyWithSuppression) {
  const analysis::AnalyzerConfig acfg{.dup_window = Duration::micros(1)};
  for (auto svc : kAllServices) {
    const auto pristine =
        run_causes(svc, 20, sim::CaptureImpairments{}, acfg);
    const auto impaired = run_causes(
        svc, 20, {.dup_prob = 0.1}, acfg);
    EXPECT_EQ(pristine, impaired) << workload::to_string(svc);
  }
}

TEST(CaptureRealism, QuantizationOnlyClassifiesIdenticallyWithQuantum) {
  const auto quantum = Duration::micros(100);
  const analysis::AnalyzerConfig acfg{.ts_quantum = quantum};
  for (auto svc : kAllServices) {
    const auto pristine =
        run_causes(svc, 20, sim::CaptureImpairments{}, acfg);
    const auto impaired = run_causes(
        svc, 20, {.quantize = quantum}, acfg);
    EXPECT_EQ(pristine, impaired) << workload::to_string(svc);
  }
}

TEST(CaptureRealism, MidStreamStartNoSpuriousDataUnavailable) {
  for (auto svc : kAllServices) {
    const auto pristine =
        run_causes(svc, 20, sim::CaptureImpairments{}, {});
    const auto impaired = run_causes(
        svc, 20, {.skip_first = 3}, {});
    ASSERT_EQ(pristine.size(), impaired.size()) << workload::to_string(svc);
    for (std::size_t i = 0; i < pristine.size(); ++i) {
      const auto count = [](const std::vector<analysis::StallCause>& v) {
        std::size_t n = 0;
        for (auto c : v) {
          if (c == analysis::StallCause::kDataUnavailable) ++n;
        }
        return n;
      };
      // A rotated capture must never invent back-end-fetch stalls that the
      // full capture did not see.
      EXPECT_LE(count(impaired[i]), count(pristine[i]))
          << workload::to_string(svc) << " flow " << i;
    }
  }
}

TEST(CaptureRealism, DegradedFlowsCarryCaptureQuality) {
  const workload::ExperimentConfig cfg{
      .profile = workload::profile_for(workload::Service::kSoftwareDownload),
      .flows = 20,
      .seed = 2015,
      .impairments = {.drop_prob = 0.05, .snaplen = 54}};
  workload::CollectingSink sink;
  workload::ParallelRunner(cfg, {}).run(sink);
  const auto result = sink.take();
  ASSERT_FALSE(result.analyses.empty());
  std::size_t degraded = 0;
  for (const auto& fa : result.analyses) {
    if (!fa.capture.degraded()) continue;
    ++degraded;
    EXPECT_GT(fa.capture.seq_gaps + fa.capture.truncated_packets, 0u);
  }
  EXPECT_GT(degraded, 0u);
}

// ---------------------------------------------------------------------------
// Config validation: each consumer checks its config once, in validate()
// ---------------------------------------------------------------------------

TEST(ConfigBuilders, AnalyzerConfigValidates) {
  const std::vector<std::pair<const char*, analysis::AnalyzerConfig>> bad = {
      {"tau 0", {.tau = 0.0}},
      {"tau -1", {.tau = -1.0}},
      {"tau NaN", {.tau = std::numeric_limits<double>::quiet_NaN()}},
      {"dup_window -1us", {.dup_window = Duration::micros(-1)}},
      {"ts_quantum -1us", {.ts_quantum = Duration::micros(-1)}},
  };
  for (const auto& [what, cfg] : bad) {
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << what;
    EXPECT_THROW(analysis::Analyzer{cfg}, std::invalid_argument) << what;
  }

  const analysis::AnalyzerConfig ok{.tau = 1.5,
                                    .dup_window = Duration::micros(5),
                                    .ts_quantum = Duration::micros(10)};
  EXPECT_NO_THROW(ok.validate());
  EXPECT_NO_THROW(analysis::Analyzer{ok});
}

TEST(ConfigBuilders, LiveConfigValidates) {
  const std::vector<std::pair<const char*, analysis::LiveConfig>> bad = {
      {"idle_timeout 0", {.idle_timeout = Duration::zero()}},
      {"idle_timeout -1us", {.idle_timeout = Duration::micros(-1)}},
      {"fin_linger -1us", {.fin_linger = Duration::micros(-1)}},
      {"analyzer.tau 0", {.analyzer = {.tau = 0.0}}},
  };
  test::AnalysisCollector sink;
  for (const auto& [what, cfg] : bad) {
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << what;
    EXPECT_THROW(analysis::LiveAnalyzer(cfg, sink), std::invalid_argument)
        << what;
  }
  EXPECT_NO_THROW((analysis::LiveConfig{.idle_timeout = Duration::seconds(1.0),
                                        .fin_linger = Duration::zero()}
                       .validate()));
}

// ---------------------------------------------------------------------------
// Unified FlowSink delivery surface
// ---------------------------------------------------------------------------

class CountingSink : public FlowSink {
 public:
  void consume(FlowResult&& result) override {
    ++consumed_;
    analyses_ += result.analyses.size();
    last_index_ = result.index;
  }
  void finish(const RunStats& stats) override {
    ++finished_;
    finish_flows_ = stats.flows;
  }

  std::size_t consumed_ = 0;
  std::size_t analyses_ = 0;
  std::size_t last_index_ = 0;
  std::size_t finished_ = 0;
  std::uint64_t finish_flows_ = 0;
};

TEST(SinkUnification, LiveAnalyzerFeedsFlowSink) {
  // Capture one simulated flow and stream its packets through the live
  // analyzer into the shared sink API.
  Rng rng(7);
  auto scenario = workload::draw_scenario(
      workload::profile_for(workload::Service::kWebSearch), rng, 1);
  const auto outcome =
      workload::run_flow(scenario, rng.split(), Duration::seconds(60.0),
                         workload::TraceCapture::kServerNic);
  ASSERT_TRUE(outcome.trace.has_value());
  ASSERT_GT(outcome.trace->size(), 0u);

  CountingSink sink;
  analysis::LiveAnalyzer live(analysis::LiveConfig{}, sink);
  for (const auto& pkt : outcome.trace->packets()) live.add_packet(pkt);
  live.flush();

  EXPECT_GE(sink.consumed_, 1u);
  EXPECT_GE(sink.analyses_, 1u);
  EXPECT_EQ(sink.finished_, 1u);
  EXPECT_EQ(sink.finish_flows_, sink.consumed_);
}

// ---------------------------------------------------------------------------
// pcap snaplen end-to-end regression
// ---------------------------------------------------------------------------

TEST(PcapSnaplen, TruncatedOptionsSurviveRoundTripAndAnalysis) {
  net::PacketTrace trace;
  auto syn = make_pkt(1'000'000, 0, 0, false);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  syn.tcp.mss = 1448;
  syn.tcp.sack_permitted = true;
  syn.tcp.window_scale = 7;
  trace.add(syn);
  trace.add(make_pkt(1'100'000, 1, 1448, true));
  auto ack = make_pkt(1'200'000, 1, 0, false);
  ack.tcp.sack_blocks = {{net::Seq32{2897}, net::Seq32{4345}}};
  trace.add(ack);

  // Snaplen 44 = IPv4(20) + fixed TCP(20) + 4 option bytes: the SYN keeps
  // its MSS option but loses the rest; the SACK block is cut entirely.
  std::stringstream ss;
  pcap::write_stream(ss, trace, {.snaplen = 44});
  pcap::ReadStats stats;
  const auto back = pcap::read_stream(ss, &stats);

  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_TRUE(back[0].truncated);
  EXPECT_TRUE(back[2].truncated);
  EXPECT_FALSE(back[1].truncated);  // no options to cut
  EXPECT_EQ(back[2].tcp.sack_blocks.size(), 0u);
  // Wire lengths preserved even though bytes are missing.
  EXPECT_EQ(back[1].payload_len, 1448u);

  // The analyzer consumes the degraded capture and reports the truncation.
  const auto result = analysis::Analyzer{}.analyze(back);
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_EQ(result.flows[0].capture.truncated_packets, 2u);
  EXPECT_TRUE(result.flows[0].capture.degraded());
}

}  // namespace
}  // namespace tapo
