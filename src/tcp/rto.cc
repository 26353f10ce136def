#include "tcp/rto.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace tapo::tcp {

void RtoEstimator::sample(Duration rtt) {
  if (rtt < Duration::micros(1)) rtt = Duration::micros(1);
  if (!has_sample_) {
    // RFC 6298 (2.2): SRTT = R, RTTVAR = R/2.
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298 (2.3): alpha = 1/8, beta = 1/4.
    const Duration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
    rttvar_ = Duration::micros((3 * rttvar_.us() + err.us()) / 4);
    srtt_ = Duration::micros((7 * srtt_.us() + rtt.us()) / 8);
  }
  // Linux floors the variance term at tcp_rto_min (mdev_max logic in
  // tcp_rtt_estimator), so RTO >= SRTT + 200 ms. This is the "very
  // conservative algorithm" behind the paper's Fig. 1b observation that
  // the RTO is often an order of magnitude above the RTT.
  base_rto_ = srtt_ + std::max(rttvar_ * 4, kMinRto);
  backoff_ = 0;
  if (telemetry::metrics_enabled()) {
    static auto& srtt_hist =
        telemetry::Registry::instance().histogram("tapo_tcp_srtt_us");
    srtt_hist.observe(static_cast<std::uint64_t>(srtt_.us()));
  }
}

Duration RtoEstimator::rto() const {
  Duration r = has_sample_ ? base_rto_ : kInitialRto;
  r = std::max(r, kMinRto);
  for (int i = 0; i < backoff_; ++i) {
    r = r * std::int64_t{2};
    if (r >= kMaxRto) break;
  }
  return std::min(r, kMaxRto);
}

void RtoEstimator::backoff() {
  if (backoff_ < 16) ++backoff_;
}

}  // namespace tapo::tcp
