// Capture-imperfection stage between the simulator's server-side tap and
// the PacketTrace the analyzer consumes.
//
// The paper's TAPO ran on tcpdump captures from production front-ends (§3),
// and a production capture lies in well-known ways: the kernel drops records
// under load (i.i.d. and in bursts), a short snaplen cuts TCP options off,
// mirror ports duplicate frames, multi-queue NICs locally reorder, timestamps
// are quantized or jittered, and rotated captures start mid-stream. This
// stage injects exactly those imperfections — composable, seeded, and
// default-off — so the analyzer's robustness to a lying capture can be
// measured (bench/robustness_stability.cc) instead of assumed.
//
// Determinism contract: every decision flows from the CaptureImpairments
// seed through one util::Rng, so the same pristine trace and config always
// produce the same impaired trace. With no impairment enabled,
// apply_impairments() returns a bit-identical clone — the pristine pipeline
// never changes shape.
#pragma once

#include <cstdint>

#include "net/trace.h"
#include "util/time.h"

namespace tapo::sim {

/// Composable capture impairments, all default-off. Set the fields
/// directly; apply_impairments() checks them through validate().
struct CaptureImpairments {
  /// Per-record i.i.d. capture-drop probability in [0, 1).
  double drop_prob = 0.0;
  /// Bursty (Gilbert-Elliott) capture drop: probability of *entering* a
  /// drop burst per record, and of *staying* in it per subsequent record
  /// (geometric burst length 1 / (1 - burst_continue_prob)).
  double burst_drop_prob = 0.0;
  double burst_continue_prob = 0.0;
  /// Snaplen in wire bytes from the IP header on (tcpdump -s). 0 = full
  /// capture. Values that cut into the TCP options drop the tail options
  /// (SACK blocks, timestamps) and mark the packet truncated; payload-only
  /// cuts are invisible in-memory because packet lengths come from the IP
  /// header, matching the pcap reader's wire-length model.
  std::uint32_t snaplen = 0;
  /// Mirror-port duplication probability: the record is captured twice,
  /// back to back, with identical timestamps.
  double dup_prob = 0.0;
  /// Local (adjacent-swap) reordering probability: the record is held back
  /// one slot, so it appears after its successor. Timestamps ride with
  /// their packets, so the impaired trace is slightly time-disordered —
  /// exactly what multi-queue capture produces.
  double reorder_prob = 0.0;
  /// Timestamp quantization granularity (floor to a multiple); zero = off.
  Duration quantize = Duration::zero();
  /// Uniform timestamp jitter in [-jitter, +jitter]; zero = off.
  Duration jitter = Duration::zero();
  /// Mid-stream capture start: the first N records never reach the trace
  /// (capture rotation began after the flow did).
  std::size_t skip_first = 0;
  /// Seed for the impairment RNG (combined with a per-flow seed by the
  /// experiment runner so parallel runs stay deterministic).
  std::uint64_t seed = 1;

  /// True when any impairment is active (the channel is a no-op otherwise).
  bool enabled() const;

  /// Full validation (same contract as ExperimentConfig::validate): throws
  /// std::invalid_argument with a self-explanatory message on a
  /// probability outside [0, 1), a non-zero snaplen too small to hold the
  /// fixed headers, or a negative duration.
  void validate() const;
};

/// Replays a pristine trace, record by record, through the impairments and
/// returns the surviving records. The config is validated first, even when
/// no impairment is enabled; with none enabled the result is a
/// bit-identical clone of the input. With metrics on, each injected
/// impairment counts once in tapo_capture_injected_total{kind}.
net::PacketTrace apply_impairments(const net::PacketTrace& pristine,
                                   const CaptureImpairments& impairments);

}  // namespace tapo::sim
