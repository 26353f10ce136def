#pragma once
// A FlowSink for tests that keeps every analysis it is handed, in the
// order the producer finalized them, so a test can inspect results (or
// count them) while the producer is still running.
#include <utility>
#include <vector>

#include "tapo/analyzer.h"
#include "tapo/sink.h"

namespace tapo::test {

class AnalysisCollector : public FlowSink {
 public:
  void consume(FlowResult&& result) override {
    for (auto& fa : result.analyses) analyses.push_back(std::move(fa));
  }

  std::vector<analysis::FlowAnalysis> analyses;
};

}  // namespace tapo::test
