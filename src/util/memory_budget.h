// Byte-level accounting for the streaming trace pipeline.
//
// A MemoryBudget is the ledger every resident byte of the pipeline is
// charged against: sealed chunks in flight (TraceChunk charges on
// construction and releases on destruction), per-flow buffered state in
// the live analyzer, and anything else a stage wants bounded. It is pure
// bookkeeping — enforcement (evicting the oldest flow when the ledger
// runs over) lives in the consumer, so this header stays dependency-free
// and usable from the lowest layer (src/net charges against it).
//
// A limit of 0 means unlimited: charges are still tracked (resident /
// high_water stay meaningful for reporting) but over_budget() is never
// true. Not thread-safe by design: one pipeline, one thread, one budget —
// the parallel runner gives each worker its own. A budget shared across
// threads would belong behind a util::Mutex capability
// (TAPO_GUARDED_BY), not grow locks of its own.
#pragma once

#include <cstddef>

namespace tapo::util {

class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  std::size_t limit() const { return limit_; }
  bool unlimited() const { return limit_ == 0; }

  void charge(std::size_t bytes) {
    resident_ += bytes;
    if (resident_ > high_water_) high_water_ = resident_;
  }
  void release(std::size_t bytes) {
    // Clamp rather than wrap: a release that exceeds the ledger is an
    // accounting bug upstream, but turning it into a 2^64-byte resident
    // figure would disable eviction entirely — fail toward bounded memory.
    resident_ = bytes > resident_ ? 0 : resident_ - bytes;
  }

  /// Bytes currently charged.
  std::size_t resident() const { return resident_; }
  /// Largest resident() ever observed.
  std::size_t high_water() const { return high_water_; }

  bool over_budget() const { return limit_ != 0 && resident_ > limit_; }

 private:
  std::size_t limit_ = 0;
  std::size_t resident_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace tapo::util
