// Umbrella header for the TAPO public API.
//
// Typical usage:
//
//   #include "tapo/tapo.h"
//
//   // Analyze a capture (tau: a stall is a gap > min(tau*SRTT, RTO)):
//   auto trace = tapo::pcap::read_file("capture.pcap");
//   tapo::analysis::Analyzer analyzer({.tau = 2.0});
//   auto result = analyzer.analyze(trace);
//   auto causes = tapo::analysis::make_stall_breakdown(result.flows);
//
//   // Or simulate a workload and analyze it:
//   tapo::workload::ExperimentConfig cfg{
//       .profile = tapo::workload::web_search_profile(), .flows = 500};
//   auto res = tapo::workload::run_experiment(cfg);
//
// Configs are plain structs: set their fields, and the component that
// consumes one (the Analyzer, the runner, the LiveAnalyzer, ...) checks it
// once, through its validate(), before any work starts.
//
// Result delivery is unified on tapo::FlowSink (tapo/sink.h): the parallel
// ParallelRunner and the streaming LiveAnalyzer both deliver the same
// FlowResult stream, so a sink written once (aggregator, record encoder,
// custom) works offline, parallel, and live. The batch CSV writers
// (tapo/csv.h) export a finished result. Capture realism lives in
// sim::apply_impairments (sim/capture_channel.h), wired into experiments
// via ExperimentConfig::impairments; the analyzer reports per-flow
// degradation in analysis::CaptureQuality.
#pragma once

#include "net/trace.h"            // IWYU pragma: export
#include "pcap/pcap.h"            // IWYU pragma: export
#include "sim/capture_channel.h"  // IWYU pragma: export
#include "tapo/analyzer.h"        // IWYU pragma: export
#include "tapo/csv.h"             // IWYU pragma: export
#include "tapo/flow.h"            // IWYU pragma: export
#include "tapo/live.h"            // IWYU pragma: export
#include "tapo/report.h"          // IWYU pragma: export
#include "tapo/sink.h"            // IWYU pragma: export
#include "tcp/connection.h"       // IWYU pragma: export
#include "workload/experiment.h"  // IWYU pragma: export
#include "workload/runner.h"      // IWYU pragma: export
