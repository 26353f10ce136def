// Lock-contention stress test for the annotated telemetry::Registry
// (ctest label: concurrency; run under TSan by tools/ci/run_matrix.sh):
// N writer threads hammer shared + per-thread counters and a histogram
// while a snapshotter loops snapshot()/export_prometheus(); totals must be
// exact after join.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/registry.h"

#include "support/sync.h"

namespace tapo {
namespace {

TEST(ConcurrencyRegistry, WritersRaceSnapshotters) {
  auto& reg = telemetry::Registry::instance();
  reg.reset();
  constexpr int kWriters = 4;
  constexpr int kIters = 5000;
  test::Latch start(1);
  std::atomic<bool> done{false};
  std::size_t snapshots_taken = 0;
  std::thread snapshotter([&] {
    start.wait();
    while (!done.load()) {
      const auto snap = reg.snapshot();
      std::ostringstream prom;
      reg.export_prometheus(prom);
      ASSERT_GE(prom.str().size(), snap.empty() ? 0u : 1u);
      ++snapshots_taken;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg, &start, t] {
      start.wait();
      auto& mine = reg.counter("tapo_test_conc_writer_total",
                               {{"writer", std::to_string(t)}});
      auto& shared = reg.counter("tapo_test_conc_shared_total");
      auto& hist = reg.histogram("tapo_test_conc_us");
      for (int i = 0; i < kIters; ++i) {
        mine.add(1);
        shared.add(1);
        hist.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  start.count_down();
  for (auto& th : writers) th.join();
  done.store(true);
  snapshotter.join();

  EXPECT_GE(snapshots_taken, 1u);
  EXPECT_EQ(reg.counter("tapo_test_conc_shared_total").value(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(reg.counter("tapo_test_conc_writer_total",
                          {{"writer", std::to_string(t)}})
                  .value(),
              static_cast<std::uint64_t>(kIters));
  }
  EXPECT_EQ(reg.histogram("tapo_test_conc_us").count(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  reg.reset();
}

}  // namespace
}  // namespace tapo
