// Tests for the sharded parallel experiment runner and the streaming
// FlowSink API: bit-identical parallel-vs-serial results, sink ordering,
// bounded-memory aggregation, trace capture, and config validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "stats/table.h"
#include "tapo/report.h"
#include "util/strings.h"
#include "workload/runner.h"

namespace tapo::workload {
namespace {

ExperimentConfig small_config(const ServiceProfile& profile,
                              std::size_t flows = 18, std::uint64_t seed = 77) {
  return ExperimentConfig{}
      .with_profile(profile)
      .with_flows(flows)
      .with_seed(seed);
}

/// Renders the paper-style stall table for byte-for-byte comparison.
std::string stall_table(const ExperimentResult& res) {
  const auto bd = analysis::make_stall_breakdown(res.analyses);
  stats::Table t("stalls");
  t.set_header({"cause", "count", "time_us", "vol%", "time%"});
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    const auto cause = static_cast<analysis::StallCause>(c);
    t.add_row({analysis::to_string(cause),
               std::to_string(bd.by_cause[c].count),
               std::to_string(bd.by_cause[c].time.us()),
               str_format("%.6f", bd.volume_fraction(cause)),
               str_format("%.6f", bd.time_fraction(cause))});
  }
  t.add_row({"total", std::to_string(bd.total_count),
             std::to_string(bd.total_time.us()), "", ""});
  return t.render();
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(stall_table(a), stall_table(b));
  EXPECT_EQ(a.retrans_ratio(), b.retrans_ratio());  // bitwise
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.data_segments_sent, b.data_segments_sent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].response_bytes, b.outcomes[i].response_bytes);
    EXPECT_EQ(a.outcomes[i].init_rwnd_bytes, b.outcomes[i].init_rwnd_bytes);
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].sender_stats.segments_sent,
              b.outcomes[i].sender_stats.segments_sent);
  }
  ASSERT_EQ(a.analyses.size(), b.analyses.size());
  for (std::size_t i = 0; i < a.analyses.size(); ++i) {
    EXPECT_EQ(a.analyses[i].unique_bytes, b.analyses[i].unique_bytes);
    EXPECT_EQ(a.analyses[i].stalls.size(), b.analyses[i].stalls.size());
    EXPECT_EQ(a.analyses[i].stalled_time, b.analyses[i].stalled_time);
    EXPECT_EQ(a.analyses[i].retrans_segments, b.analyses[i].retrans_segments);
  }
}

TEST(ParallelRunner, BitIdenticalAcrossThreadCountsAllProfiles) {
  for (const auto& profile :
       {cloud_storage_profile(), software_download_profile(),
        web_search_profile()}) {
    const auto cfg = small_config(profile);
    const auto serial = run_experiment(cfg);  // threads = 1, inline path
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const auto parallel = run_experiment(cfg, threads);
      SCOPED_TRACE(profile.name + " @ " + std::to_string(threads) +
                   " threads");
      expect_identical(serial, parallel);
    }
  }
}

TEST(ParallelRunner, SinkSeesFlowsInIndexOrder) {
  struct OrderSink : FlowSink {
    std::vector<std::size_t> indices;
    bool finished = false;
    RunStats stats;
    void consume(FlowResult&& r) override { indices.push_back(r.index); }
    void finish(const RunStats& s) override {
      finished = true;
      stats = s;
    }
  };

  const auto cfg = small_config(web_search_profile(), 24);
  OrderSink sink;
  RunOptions options;
  options.threads = 4;
  const auto stats = ParallelRunner(cfg, options).run(sink);

  ASSERT_EQ(sink.indices.size(), 24u);
  for (std::size_t i = 0; i < sink.indices.size(); ++i) {
    EXPECT_EQ(sink.indices[i], i);
  }
  EXPECT_TRUE(sink.finished);
  EXPECT_EQ(sink.stats.flows, 24u);
  EXPECT_EQ(stats.flows, 24u);
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.simulate_seconds, 0.0);
  EXPECT_GT(stats.flows_per_second, 0.0);
  EXPECT_GE(stats.worker_utilization, 0.0);
  EXPECT_LE(stats.worker_utilization, 1.0);
}

TEST(ParallelRunner, BreakdownSinkMatchesBufferedAggregation) {
  const auto cfg = small_config(software_download_profile(), 16, 5);
  const auto buffered = run_experiment(cfg);
  const auto ref = analysis::make_stall_breakdown(buffered.analyses);
  // The runner captures only to analyze: no outcome keeps its trace.
  for (const auto& o : buffered.outcomes) EXPECT_FALSE(o.trace.has_value());

  BreakdownSink sink;
  RunOptions options;
  options.threads = 2;
  ParallelRunner(cfg, options).run(sink);

  EXPECT_EQ(sink.flows(), 16u);
  EXPECT_EQ(sink.total_packets(), buffered.total_packets);
  EXPECT_EQ(sink.retrans_ratio(), buffered.retrans_ratio());
  EXPECT_EQ(sink.stalls().total_count, ref.total_count);
  EXPECT_EQ(sink.stalls().total_time, ref.total_time);
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    EXPECT_EQ(sink.stalls().by_cause[c].count, ref.by_cause[c].count);
    EXPECT_EQ(sink.stalls().by_cause[c].time, ref.by_cause[c].time);
  }
  const auto rref = analysis::make_retrans_breakdown(buffered.analyses);
  EXPECT_EQ(sink.retrans().total_count, rref.total_count);
  EXPECT_EQ(sink.retrans().f_double_time, rref.f_double_time);
}

// The serialization contract (runner.h): consume() runs one-at-a-time
// under the merge lock, so plain unsynchronized state is safe to mutate
// from it. The counters below are deliberately non-atomic; the sanitizer
// jobs run every test under ThreadSanitizer too, which would flag any
// unlocked concurrent access.
TEST(ParallelRunner, SinkSerializedAcrossEightThreads) {
  const auto cfg = small_config(web_search_profile(), 32, 11);
  struct PlainSink : FlowSink {
    std::uint64_t consumed = 0;        // unsynchronized on purpose
    std::uint64_t packets = 0;
    void consume(FlowResult&& r) override {
      EXPECT_EQ(r.index, consumed);  // strictly sequential, never reordered
      ++consumed;
      packets += r.packets;
    }
  };
  PlainSink sink;
  RunOptions options;
  options.threads = 8;
  ParallelRunner(cfg, options).run(sink);
  EXPECT_EQ(sink.consumed, 32u);
  EXPECT_GT(sink.packets, 0u);
}

TEST(ParallelRunner, BreakdownSinkShardedBitwiseEqualsSerial) {
  // One BreakdownSink fed by an 8-thread run must equal a serial run field
  // for field — the aggregates are integer counts and integer-us times, so
  // "close" is not good enough.
  const auto cfg = small_config(cloud_storage_profile(), 24, 3);
  BreakdownSink serial;
  ParallelRunner(cfg, {}).run(serial);

  BreakdownSink sharded;
  RunOptions options;
  options.threads = 8;
  ParallelRunner(cfg, options).run(sharded);

  EXPECT_EQ(sharded.flows(), serial.flows());
  EXPECT_EQ(sharded.total_packets(), serial.total_packets());
  EXPECT_EQ(sharded.data_segments_sent(), serial.data_segments_sent());
  EXPECT_EQ(sharded.retransmissions(), serial.retransmissions());
  EXPECT_EQ(sharded.retrans_ratio(), serial.retrans_ratio());  // bitwise
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    EXPECT_EQ(sharded.stalls().by_cause[c].count, serial.stalls().by_cause[c].count);
    EXPECT_EQ(sharded.stalls().by_cause[c].time, serial.stalls().by_cause[c].time);
  }
  for (std::size_t c = 0; c < analysis::kNumRetransCauses; ++c) {
    EXPECT_EQ(sharded.retrans().by_cause[c].count, serial.retrans().by_cause[c].count);
    EXPECT_EQ(sharded.retrans().by_cause[c].time, serial.retrans().by_cause[c].time);
  }
  EXPECT_EQ(sharded.retrans().f_double_time, serial.retrans().f_double_time);
  EXPECT_EQ(sharded.retrans().t_double_time, serial.retrans().t_double_time);
  EXPECT_EQ(sharded.stall_ratio_cdf().count(), serial.stall_ratio_cdf().count());
}

TEST(ParallelRunner, DeriveFlowSeedsIsPureAndMatchesMasterSplits) {
  const auto a = derive_flow_seeds(9, 50);
  const auto b = derive_flow_seeds(9, 50);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, b);
  // Prefix-stability: the first k seeds do not depend on the total count.
  const auto prefix = derive_flow_seeds(9, 10);
  for (std::size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], a[i]);
  // And the scheme is exactly the master-split sequence.
  Rng master(9);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(master.split_seed(), a[i]);
}

TEST(ParallelRunner, RunFlowCaptureMatchesAnalyzePath) {
  const auto profile = web_search_profile();
  Rng rng(3);
  const auto scenario = draw_scenario(profile, rng, 1);
  const auto with = run_flow(scenario, Rng(11), Duration::seconds(600.0),
                             TraceCapture::kServerNic);
  const auto without = run_flow(scenario, Rng(11), Duration::seconds(600.0));
  ASSERT_TRUE(with.trace.has_value());
  EXPECT_FALSE(without.trace.has_value());
  EXPECT_GT(with.trace->size(), 0u);
  // Capture does not perturb the simulation itself.
  EXPECT_EQ(with.sender_stats.segments_sent, without.sender_stats.segments_sent);
  EXPECT_EQ(with.completed, without.completed);
}

TEST(ExperimentConfigValidation, RejectsZeroFlowsEagerly) {
  EXPECT_THROW(ExperimentConfig{}.with_flows(0), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsNonPositiveFlowCap) {
  EXPECT_THROW(ExperimentConfig{}.with_max_flow_time(Duration::zero()),
               std::invalid_argument);
}

TEST(ExperimentConfigValidation, RunnerRejectsDefaultProfile) {
  // A default-constructed profile has no rwnd classes; the old harness
  // silently produced empty tables for it.
  ExperimentConfig cfg;
  cfg.flows = 1;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);

  cfg.profile = web_search_profile();
  cfg.flows = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(ExperimentConfigValidation, FluentChainBuildsValidConfig) {
  const auto cfg = ExperimentConfig{}
                       .with_profile(web_search_profile())
                       .with_flows(7)
                       .with_seed(123)
                       .with_recovery(tcp::RecoveryMechanism::kSrto)
                       .with_analysis(false)
                       .with_max_flow_time(Duration::seconds(30.0));
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.flows, 7u);
  EXPECT_EQ(cfg.seed, 123u);
  ASSERT_TRUE(cfg.recovery.has_value());
  EXPECT_EQ(*cfg.recovery, tcp::RecoveryMechanism::kSrto);
  EXPECT_FALSE(cfg.analyze);
  const auto res = run_experiment(cfg, 2);
  EXPECT_EQ(res.outcomes.size(), 7u);
  EXPECT_TRUE(res.analyses.empty());
}

}  // namespace
}  // namespace tapo::workload
