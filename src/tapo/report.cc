#include "tapo/report.h"

#include "util/strings.h"

namespace tapo::analysis {
namespace {

double frac(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

double frac_time(Duration a, Duration b) {
  return b == Duration::zero() ? 0.0 : a / b;
}

}  // namespace

double StallBreakdown::volume_fraction(StallCause c) const {
  return frac(by_cause[static_cast<std::size_t>(c)].count, total_count);
}

double StallBreakdown::time_fraction(StallCause c) const {
  return frac_time(by_cause[static_cast<std::size_t>(c)].time, total_time);
}

double RetransBreakdown::volume_fraction(RetransCause c) const {
  return frac(by_cause[static_cast<std::size_t>(c)].count, total_count);
}

double RetransBreakdown::time_fraction(RetransCause c) const {
  return frac_time(by_cause[static_cast<std::size_t>(c)].time, total_time);
}

void StallBreakdown::add(const FlowAnalysis& flow) {
  for (const auto& s : flow.stalls) {
    auto& agg = by_cause[static_cast<std::size_t>(s.cause)];
    ++agg.count;
    agg.time += s.duration;
    ++total_count;
    total_time += s.duration;
  }
}

void RetransBreakdown::add(const FlowAnalysis& flow) {
  for (const auto& s : flow.stalls) {
    if (s.cause != StallCause::kRetransmission) continue;
    auto& agg = by_cause[static_cast<std::size_t>(s.retrans_cause)];
    ++agg.count;
    agg.time += s.duration;
    ++total_count;
    total_time += s.duration;
    if (s.retrans_cause == RetransCause::kDoubleRetrans) {
      if (s.f_double) {
        f_double_time += s.duration;
      } else {
        t_double_time += s.duration;
      }
    }
    if (s.retrans_cause == RetransCause::kTailRetrans) {
      if (s.state_at_stall == tcp::CaState::kRecovery ||
          s.state_at_stall == tcp::CaState::kDisorder) {
        tail_recovery_time += s.duration;
      } else {
        tail_open_time += s.duration;
      }
    }
  }
}

StallBreakdown make_stall_breakdown(const std::vector<FlowAnalysis>& flows) {
  StallBreakdown bd;
  for (const auto& f : flows) bd.add(f);
  return bd;
}

RetransBreakdown make_retrans_breakdown(
    const std::vector<FlowAnalysis>& flows) {
  RetransBreakdown bd;
  for (const auto& f : flows) bd.add(f);
  return bd;
}

ServiceSummary make_service_summary(const std::vector<FlowAnalysis>& flows) {
  ServiceSummary s;
  double speed_sum = 0, bytes_sum = 0, rtt_sum = 0, rto_sum = 0;
  std::uint64_t data = 0, retrans = 0, rtt_flows = 0, rto_flows = 0;
  for (const auto& f : flows) {
    ++s.flows;
    speed_sum += f.avg_speed_Bps;
    bytes_sum += static_cast<double>(f.unique_bytes);
    data += f.data_segments;
    retrans += f.retrans_segments;
    if (f.avg_rtt_us > 0) {
      rtt_sum += f.avg_rtt_us;
      ++rtt_flows;
    }
    if (f.avg_rto_us > 0) {
      rto_sum += f.avg_rto_us;
      ++rto_flows;
    }
  }
  if (s.flows > 0) {
    speed_sum /= static_cast<double>(s.flows);
    bytes_sum /= static_cast<double>(s.flows);
  }
  s.avg_speed_Bps = speed_sum;
  s.avg_flow_bytes = bytes_sum;
  s.pkt_loss = frac(retrans, data);
  if (rtt_flows) s.avg_rtt_us = rtt_sum / static_cast<double>(rtt_flows);
  if (rto_flows) s.avg_rto_us = rto_sum / static_cast<double>(rto_flows);
  return s;
}

stats::Cdf stall_ratio_cdf(const std::vector<FlowAnalysis>& flows) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    if (f.transmission_time > Duration::zero()) cdf.add(f.stall_ratio);
  }
  return cdf;
}

stats::Cdf flow_rtt_cdf_ms(const std::vector<FlowAnalysis>& flows) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    if (f.avg_rtt_us > 0) cdf.add(f.avg_rtt_us / 1000.0);
  }
  return cdf;
}

stats::Cdf flow_rto_cdf_ms(const std::vector<FlowAnalysis>& flows) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    if (f.avg_rto_us > 0) cdf.add(f.avg_rto_us / 1000.0);
  }
  return cdf;
}

stats::Cdf rto_over_rtt_cdf(const std::vector<FlowAnalysis>& flows) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    if (f.avg_rtt_us > 0 && f.avg_rto_us > 0) {
      cdf.add(f.avg_rto_us / f.avg_rtt_us);
    }
  }
  return cdf;
}

stats::Cdf init_rwnd_cdf_mss(const std::vector<FlowAnalysis>& flows) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    cdf.add(static_cast<double>(f.init_rwnd_mss));
  }
  return cdf;
}

stats::Cdf stall_position_cdf(const std::vector<FlowAnalysis>& flows,
                              RetransCause cause) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    for (const auto& s : f.stalls) {
      if (s.retrans_cause == cause) cdf.add(s.rel_position);
    }
  }
  return cdf;
}

stats::Cdf stall_inflight_cdf(const std::vector<FlowAnalysis>& flows,
                              RetransCause cause) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    for (const auto& s : f.stalls) {
      if (s.retrans_cause == cause) cdf.add(static_cast<double>(s.in_flight));
    }
  }
  return cdf;
}

stats::Cdf inflight_on_ack_cdf(const std::vector<FlowAnalysis>& flows) {
  stats::Cdf cdf;
  for (const auto& f : flows) {
    for (const auto v : f.inflight_on_ack) cdf.add(static_cast<double>(v));
  }
  return cdf;
}

std::vector<double> zero_rwnd_probability(
    const std::vector<FlowAnalysis>& flows,
    const std::vector<std::uint32_t>& bucket_edges_mss) {
  if (bucket_edges_mss.size() < 2) return {};
  const std::size_t buckets = bucket_edges_mss.size() - 1;
  std::vector<std::uint64_t> total(buckets, 0), zero(buckets, 0);
  for (const auto& f : flows) {
    for (std::size_t i = 0; i < buckets; ++i) {
      if (f.init_rwnd_mss >= bucket_edges_mss[i] &&
          f.init_rwnd_mss < bucket_edges_mss[i + 1]) {
        ++total[i];
        if (f.had_zero_rwnd) ++zero[i];
        break;
      }
    }
  }
  std::vector<double> prob(buckets, 0.0);
  for (std::size_t i = 0; i < buckets; ++i) prob[i] = frac(zero[i], total[i]);
  return prob;
}

std::string describe_flow(const FlowAnalysis& fa) {
  std::string out = str_format(
      "flow %s\n  bytes=%llu segments=%llu retrans=%llu (timeout=%llu "
      "fast=%llu spurious=%llu)\n  time=%s stalled=%s (ratio %.2f) "
      "avg_rtt=%s avg_rto=%s init_rwnd=%uB\n",
      fa.key.to_string().c_str(),
      static_cast<unsigned long long>(fa.unique_bytes),
      static_cast<unsigned long long>(fa.data_segments),
      static_cast<unsigned long long>(fa.retrans_segments),
      static_cast<unsigned long long>(fa.timeout_retrans),
      static_cast<unsigned long long>(fa.fast_retrans),
      static_cast<unsigned long long>(fa.spurious_retrans),
      human_us(static_cast<double>(fa.transmission_time.us())).c_str(),
      human_us(static_cast<double>(fa.stalled_time.us())).c_str(),
      fa.stall_ratio,
      human_us(fa.avg_rtt_us).c_str(), human_us(fa.avg_rto_us).c_str(),
      fa.init_rwnd_bytes);
  for (const auto& s : fa.stalls) {
    out += str_format("  stall @%.3fs +%s cause=%s", s.start.sec(),
                      human_us(static_cast<double>(s.duration.us())).c_str(),
                      to_string(s.cause));
    if (s.cause == StallCause::kRetransmission) {
      out += str_format(" [%s%s, state=%s, in_flight=%u, pos=%.2f]",
                        to_string(s.retrans_cause),
                        s.retrans_cause == RetransCause::kDoubleRetrans
                            ? (s.f_double ? "/f-double" : "/t-double")
                            : "",
                        tcp::to_string(s.state_at_stall), s.in_flight,
                        s.rel_position);
    }
    out += "\n";
  }
  return out;
}

}  // namespace tapo::analysis
