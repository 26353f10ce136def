// Telemetry subsystem tests: tracer ring semantics, flow sampling, the
// metrics registry and its exporters, the minimal JSON parser, the
// cause-name mirror against the analyzer, and the acceptance-criteria
// equivalence between tapo_stalls_total{cause=...} and the stall breakdown
// a BreakdownSink computes from the same run.
//
// Suite names all start with "Telemetry", so `ctest -R Telemetry` runs
// them all.
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tapo/analyzer.h"
#include "tapo/report.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "workload/experiment.h"
#include "workload/runner.h"

#include "support/sync.h"

namespace tapo {
namespace {

using telemetry::EventKind;
using telemetry::FlowScope;
using telemetry::Json;
using telemetry::json_parse;
using telemetry::Registry;
using telemetry::Tracer;

/// Puts the tracer in a known state for one test and restores the shipped
/// defaults afterwards.
class TelemetryTracer : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& tracer = Tracer::instance();
    tracer.reset();
    tracer.set_sample_every(1);
    tracer.set_categories(telemetry::kControl | telemetry::kLifecycle);
    tracer.set_enabled(true);
  }
  void TearDown() override {
    auto& tracer = Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_sample_every(1);
    tracer.set_categories(telemetry::kControl | telemetry::kLifecycle);
    tracer.reset();
  }
};

TEST_F(TelemetryTracer, RingOverwritesOldestAndCountsDrops) {
  auto& tracer = Tracer::instance();
  tracer.reset();
  constexpr auto kCap = static_cast<std::int64_t>(Tracer::kShardCapacity);
  {
    FlowScope scope(7);
    for (std::int64_t i = 0; i < kCap + 84; ++i) {
      tracer.record(EventKind::kRtoFire, i, 1, 2);
    }
  }
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), Tracer::kShardCapacity);
  EXPECT_EQ(tracer.dropped(), 84u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.flow, 7u);
    EXPECT_GE(ev.ts_us, 84);  // the oldest 84 were overwritten
    EXPECT_EQ(ev.kind, EventKind::kRtoFire);
  }
}

TEST_F(TelemetryTracer, FlowScopeSamplingRecordsEveryNth) {
  auto& tracer = Tracer::instance();
  tracer.set_sample_every(2);
  for (std::uint64_t f = 0; f < 4; ++f) {
    FlowScope scope(f);
    tracer.record(EventKind::kRtoFire, static_cast<std::int64_t>(f), 0, 0);
  }
  std::set<std::uint64_t> flows;
  for (const auto& ev : tracer.collect()) flows.insert(ev.flow);
  EXPECT_EQ(flows, (std::set<std::uint64_t>{0, 2}));
}

TEST_F(TelemetryTracer, FlowScopeNestsAndRestores) {
  auto& tracer = Tracer::instance();
  {
    FlowScope outer(1);
    {
      FlowScope inner(2);
      tracer.record(EventKind::kRtoFire, 10, 0, 0);
    }
    tracer.record(EventKind::kRtoFire, 20, 0, 0);
  }
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].flow, 1u);  // collect() orders by (flow, ts)
  EXPECT_EQ(events[1].flow, 2u);
}

TEST_F(TelemetryTracer, CategoryMaskFiltersPacketEvents) {
  auto& tracer = Tracer::instance();
  // Default mask: control + lifecycle. Packet events must not record.
  EXPECT_FALSE(tracer.should_record(EventKind::kSegmentTx));
  tracer.record(EventKind::kSegmentTx, 1, 0, 0);
  EXPECT_TRUE(tracer.collect().empty());

  tracer.set_categories(telemetry::kPackets | telemetry::kControl |
                        telemetry::kLifecycle);
  EXPECT_TRUE(tracer.should_record(EventKind::kSegmentTx));
  tracer.record(EventKind::kSegmentTx, 1, 0, 0);
  EXPECT_EQ(tracer.collect().size(), 1u);
}

TEST_F(TelemetryTracer, DisabledRecordsNothing) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(false);
  tracer.record(EventKind::kRtoFire, 1, 0, 0);
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

/// Packs a kStallSpan payload the way analyzer.cc does.
std::uint64_t pack_stall(std::uint8_t cause, std::uint8_t retrans_cause,
                         std::uint8_t state, bool f_double,
                         std::uint32_t in_flight) {
  return static_cast<std::uint64_t>(cause) |
         static_cast<std::uint64_t>(retrans_cause) << 8 |
         static_cast<std::uint64_t>(state) << 16 |
         static_cast<std::uint64_t>(f_double) << 24 |
         static_cast<std::uint64_t>(in_flight) << 32;
}

TEST_F(TelemetryTracer, ChromeTraceExportsLabeledStallSpans) {
  auto& tracer = Tracer::instance();
  const std::uint32_t run = tracer.begin_run("web search");
  ASSERT_EQ(run, 1u);
  {
    FlowScope scope(static_cast<std::uint64_t>(run) << 32 | 3);
    // A retransmission (tail) stall and a client-idle stall.
    tracer.record(EventKind::kStallSpan, 1000, 2500,
                  pack_stall(5, 1, 2, true, 7));
    tracer.record(EventKind::kStallSpan, 9000, 400,
                  pack_stall(2, 7, 0, false, 0));
    tracer.record(EventKind::kCwnd, 500, 10, 20);
  }

  std::ostringstream os;
  tracer.export_chrome_trace(os);
  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type(), Json::Type::kArray);

  std::map<std::string, const Json*> by_name;
  const Json* meta = nullptr;
  for (const Json& ev : events->array()) {
    const std::string ph = ev.find("ph")->str();
    if (ph == "M") meta = &ev;
    if (ph == "X" || ph == "C") by_name[ev.find("name")->str()] = &ev;
  }

  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("args")->find("name")->str(), "web search");
  EXPECT_EQ(meta->find("pid")->number(), 1.0);

  const Json* tail = by_name["stall:retransmission/tail_retrans"];
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->find("ph")->str(), "X");
  EXPECT_EQ(tail->find("ts")->number(), 1000.0);
  EXPECT_EQ(tail->find("dur")->number(), 2500.0);
  EXPECT_EQ(tail->find("pid")->number(), 1.0);
  EXPECT_EQ(tail->find("tid")->number(), 3.0);
  const Json* args = tail->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("cause")->str(), "retransmission");
  EXPECT_EQ(args->find("retrans_cause")->str(), "tail_retrans");
  EXPECT_EQ(args->find("in_flight")->number(), 7.0);
  EXPECT_TRUE(args->find("f_double")->boolean());

  const Json* idle = by_name["stall:client_idle"];
  ASSERT_NE(idle, nullptr);  // non-retransmission stalls omit the sub-cause
  EXPECT_EQ(idle->find("args")->find("cause")->str(), "client_idle");

  const Json* cwnd = by_name["cwnd[f3]"];
  ASSERT_NE(cwnd, nullptr);
  EXPECT_EQ(cwnd->find("ph")->str(), "C");
  EXPECT_EQ(cwnd->find("args")->find("cwnd")->number(), 10.0);
  EXPECT_EQ(cwnd->find("args")->find("ssthresh")->number(), 20.0);
}

TEST_F(TelemetryTracer, JsonlExportOneValidObjectPerLine) {
  auto& tracer = Tracer::instance();
  {
    FlowScope scope(static_cast<std::uint64_t>(2) << 32 | 5);
    tracer.record(EventKind::kRtoFire, 100, 600000, 3);
    tracer.record(EventKind::kStallSpan, 200, 999, pack_stall(5, 0, 3, false, 2));
  }
  std::ostringstream os;
  tracer.export_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    std::string error;
    const auto doc = json_parse(line, &error);
    ASSERT_TRUE(doc.has_value()) << line << ": " << error;
    EXPECT_EQ(doc->find("run")->number(), 2.0);
    EXPECT_EQ(doc->find("flow")->number(), 5.0);
    if (doc->find("kind")->str() == "stall") {
      EXPECT_EQ(doc->find("cause")->str(), "retransmission");
      EXPECT_EQ(doc->find("retrans_cause")->str(), "double_retrans");
      EXPECT_EQ(doc->find("dur_us")->number(), 999.0);
    }
  }
  EXPECT_EQ(lines, 2u);
}

TEST(TelemetryNames, MirrorAnalysisToString) {
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    EXPECT_STREQ(telemetry::stall_cause_name(static_cast<std::uint8_t>(c)),
                 analysis::to_string(static_cast<analysis::StallCause>(c)));
  }
  // kNumRetransCauses excludes kNone; the name table must cover it too.
  for (std::size_t c = 0; c <= analysis::kNumRetransCauses; ++c) {
    EXPECT_STREQ(telemetry::retrans_cause_name(static_cast<std::uint8_t>(c)),
                 analysis::to_string(static_cast<analysis::RetransCause>(c)));
  }
}

TEST(TelemetryRegistry, CounterSumsAcrossThreads) {
  auto& counter = Registry::instance().counter("ttest_mt_total");
  counter.reset();
  // Start gate (tests/support/sync.h) so the adds genuinely contend
  // instead of the first thread finishing before the last one spawns.
  test::Latch start(1);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&counter, &start] {
      start.wait();
      for (int i = 0; i < 1000; ++i) counter.add(1);
    });
  }
  start.count_down();
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), 4000u);
}

TEST(TelemetryRegistry, SameNameAndLabelsSameMetric) {
  auto& a = Registry::instance().counter("ttest_dedup_total", {{"k", "v"}});
  auto& b = Registry::instance().counter("ttest_dedup_total", {{"k", "v"}});
  auto& c = Registry::instance().counter("ttest_dedup_total", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
}

TEST(TelemetryRegistry, HistogramLogBuckets) {
  auto& hist = Registry::instance().histogram("ttest_hist_us");
  hist.reset();
  hist.observe(0);     // bucket 0
  hist.observe(1);     // bucket 1: [1, 2)
  hist.observe(2);     // bucket 2: [2, 4)
  hist.observe(3);     // bucket 2
  hist.observe(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 1030u);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(2), 2u);
  EXPECT_EQ(hist.bucket(11), 1u);
  hist.reset();
}

TEST(TelemetryRegistry, ResetZeroesButKeepsReferences) {
  auto& counter = Registry::instance().counter("ttest_reset_total");
  counter.add(5);
  Registry::instance().reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(2);  // the cached reference must still be live
  EXPECT_EQ(counter.value(), 2u);
  counter.reset();
}

TEST(TelemetryRegistry, PrometheusExportFormat) {
  auto& registry = Registry::instance();
  auto& counter = registry.counter("ttest_prom_total", {{"svc", "a"}});
  counter.reset();
  counter.add(3);
  auto& hist = registry.histogram("ttest_prom_lat_us");
  hist.reset();
  hist.observe(5);

  std::ostringstream os;
  registry.export_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE ttest_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("ttest_prom_total{svc=\"a\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ttest_prom_lat_us histogram"), std::string::npos);
  // 5 lands in [4, 8): cumulative le="4" is 0, le="8" is 1.
  EXPECT_NE(text.find("ttest_prom_lat_us_bucket{le=\"4\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("ttest_prom_lat_us_bucket{le=\"8\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("ttest_prom_lat_us_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("ttest_prom_lat_us_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("ttest_prom_lat_us_count 1\n"), std::string::npos);
  counter.reset();
  hist.reset();
}

TEST(TelemetryRegistry, JsonExportParses) {
  auto& registry = Registry::instance();
  registry.counter("ttest_json_total").add(1);
  std::ostringstream os;
  registry.export_json(os);
  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->type(), Json::Type::kArray);
  bool found = false;
  for (const Json& m : metrics->array()) {
    if (m.find("name")->str() != "ttest_json_total") continue;
    found = true;
    EXPECT_EQ(m.find("type")->str(), "counter");
    EXPECT_GE(m.find("value")->number(), 1.0);
  }
  EXPECT_TRUE(found);
  registry.counter("ttest_json_total").reset();
}

TEST(TelemetryJson, ParserRoundTrip) {
  std::string error;
  const auto doc = json_parse(
      R"({"a":[1,2.5,"x\nA",true,null],"b":{"c":-3e2},"d":""})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 5u);
  EXPECT_EQ(a->array()[0].number(), 1.0);
  EXPECT_EQ(a->array()[1].number(), 2.5);
  EXPECT_EQ(a->array()[2].str(), "x\nA");
  EXPECT_TRUE(a->array()[3].boolean());
  EXPECT_TRUE(a->array()[4].is_null());
  EXPECT_EQ(doc->find("b")->find("c")->number(), -300.0);
  EXPECT_EQ(doc->find("d")->str(), "");
}

TEST(TelemetryJson, ParserRejectsMalformedInput) {
  // "1e400" overflows a double: rejected, not read as infinity.
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "12 34", "\"unterminated",
                          "{\"a\" 1}", "tru", "[1e400]", "1.5.2"}) {
    std::string error;
    EXPECT_FALSE(json_parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(TelemetryJson, QuoteEscapesControlCharacters) {
  EXPECT_EQ(telemetry::json_quote("a\"b\\c\n\t"), "\"a\\\"b\\\\c\\n\\t\"");
  const auto back = json_parse(telemetry::json_quote("\x01\x1f plain"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->str(), "\x01\x1f plain");
}

// Acceptance criterion: the per-cause stall counters the analyzer
// increments must sum to exactly the stall table a BreakdownSink builds
// from the same flows — both count at the same classification site.
TEST(TelemetryStallCounters, MatchBreakdownSinkExactly) {
  telemetry::disable_and_reset_all();
  telemetry::enable_all();

  const workload::ExperimentConfig cfg{
      .profile = workload::web_search_profile(), .flows = 60, .seed = 2015};
  workload::RunOptions options;
  options.threads = 2;
  workload::ParallelRunner runner(cfg, options);
  workload::BreakdownSink sink;
  runner.run(sink);

  auto& registry = Registry::instance();
  const auto& breakdown = sink.stalls();
  std::uint64_t counter_total = 0;
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    const auto cause = static_cast<analysis::StallCause>(c);
    const std::vector<telemetry::Label> labels = {
        {"cause", analysis::to_string(cause)}};
    const std::uint64_t count =
        registry.counter("tapo_stalls_total", labels).value();
    EXPECT_EQ(count, breakdown.by_cause[c].count) << analysis::to_string(cause);
    EXPECT_EQ(registry.counter("tapo_stall_time_us_total", labels).value(),
              static_cast<std::uint64_t>(breakdown.by_cause[c].time.us()))
        << analysis::to_string(cause);
    counter_total += count;
  }
  EXPECT_EQ(counter_total, breakdown.total_count);
  EXPECT_GT(counter_total, 0u) << "workload produced no stalls to compare";
  EXPECT_EQ(registry.histogram("tapo_stall_duration_us").count(),
            breakdown.total_count);

  telemetry::disable_and_reset_all();
}

// The runner tags every flow with run_id << 32 | flow_index; the Chrome
// export then groups events per run (pid) and flow (tid).
TEST(TelemetryRunnerTrace, EventsCarryRunAndFlowIds) {
  telemetry::disable_and_reset_all();
  telemetry::enable_all();

  const workload::ExperimentConfig cfg{
      .profile = workload::web_search_profile(), .flows = 8, .seed = 7};
  workload::ParallelRunner runner(cfg, {});
  workload::CollectingSink sink;
  runner.run(sink);

  const auto events = Tracer::instance().collect();
  ASSERT_FALSE(events.empty());
  std::set<std::uint32_t> runs;
  std::set<std::uint32_t> flows;
  for (const auto& ev : events) {
    if (ev.flow == 0) continue;  // events outside any FlowScope
    runs.insert(static_cast<std::uint32_t>(ev.flow >> 32));
    flows.insert(static_cast<std::uint32_t>(ev.flow & 0xffffffffu));
  }
  EXPECT_EQ(runs, (std::set<std::uint32_t>{1}));
  EXPECT_FALSE(flows.empty());
  for (const std::uint32_t f : flows) EXPECT_LT(f, 8u);

  telemetry::disable_and_reset_all();
}

}  // namespace
}  // namespace tapo
