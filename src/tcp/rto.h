// RFC 6298 retransmission timer estimator, with the Linux deviations the
// paper's dataset ran under: a 200 ms RTO floor, 120 s ceiling, and a 3 s
// initial RTO before the first RTT sample (kernel 2.6.32's TCP_TIMEOUT_INIT).
// Exponential backoff is applied on consecutive timeouts and cleared by a
// new RTT sample.
#pragma once

#include "util/time.h"

namespace tapo::tcp {

/// RTO before the first RTT sample (2.6.32's TCP_TIMEOUT_INIT).
inline constexpr Duration kInitialRto = Duration::seconds(3.0);
/// RTO floor (TCP_RTO_MIN); also the floor of the 4 * RTTVAR term.
inline constexpr Duration kMinRto = Duration::millis(200);
/// RTO ceiling (TCP_RTO_MAX).
inline constexpr Duration kMaxRto = Duration::seconds(120.0);

class RtoEstimator {
 public:
  /// Feeds one RTT measurement (Karn's rule: callers must not sample
  /// retransmitted segments). Clears any timeout backoff.
  void sample(Duration rtt);

  /// Current RTO including backoff, clamped to [kMinRto, kMaxRto].
  Duration rto() const;

  /// Smoothed RTT; zero before the first sample.
  Duration srtt() const { return srtt_; }
  Duration rttvar() const { return rttvar_; }
  bool has_sample() const { return has_sample_; }

  /// Doubles the backoff multiplier (call on RTO expiry).
  void backoff();
  int backoff_exponent() const { return backoff_; }

 private:
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  Duration base_rto_;
  bool has_sample_ = false;
  int backoff_ = 0;
};

}  // namespace tapo::tcp
