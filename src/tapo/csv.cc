#include "tapo/csv.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "net/ipv4.h"
#include "util/strings.h"

namespace tapo::analysis {
namespace {

std::string endpoint(std::uint32_t ip, std::uint16_t port) {
  return net::ipv4_to_string(ip) + ":" + std::to_string(port);
}

constexpr const char* kFlowsHeader =
    "flow,server,client,bytes,segments,retrans,timeout_retrans,"
    "fast_retrans,spurious,transmission_s,stalled_s,stall_ratio,"
    "avg_rtt_ms,avg_rto_ms,avg_speed_Bps,init_rwnd_bytes,"
    "had_zero_rwnd,stalls\n";

constexpr const char* kStallsHeader =
    "flow,start_s,duration_s,cause,retrans_cause,f_double,state,"
    "in_flight,rel_position\n";

}  // namespace

void write_flows_csv(std::ostream& out,
                     const std::vector<FlowAnalysis>& flows) {
  out << kFlowsHeader;
  std::size_t id = 0;
  for (const auto& f : flows) {
    out << id++ << ',' << endpoint(f.key.src_ip, f.key.src_port) << ','
        << endpoint(f.key.dst_ip, f.key.dst_port) << ',' << f.unique_bytes
        << ',' << f.data_segments << ',' << f.retrans_segments << ','
        << f.timeout_retrans << ',' << f.fast_retrans << ','
        << f.spurious_retrans << ','
        << str_format("%.6f", f.transmission_time.sec()) << ','
        << str_format("%.6f", f.stalled_time.sec()) << ','
        << str_format("%.4f", f.stall_ratio) << ','
        << str_format("%.3f", f.avg_rtt_us / 1000.0) << ','
        << str_format("%.3f", f.avg_rto_us / 1000.0) << ','
        << str_format("%.1f", f.avg_speed_Bps) << ',' << f.init_rwnd_bytes
        << ',' << (f.had_zero_rwnd ? 1 : 0) << ',' << f.stalls.size() << '\n';
  }
}

void write_stalls_csv(std::ostream& out,
                      const std::vector<FlowAnalysis>& flows) {
  out << kStallsHeader;
  std::size_t id = 0;
  for (const auto& f : flows) {
    for (const auto& s : f.stalls) {
      out << id << ',' << str_format("%.6f", s.start.sec()) << ','
          << str_format("%.6f", s.duration.sec()) << ',' << to_string(s.cause)
          << ','
          << (s.cause == StallCause::kRetransmission
                  ? to_string(s.retrans_cause)
                  : "")
          << ',' << (s.f_double ? 1 : 0) << ','
          << tcp::to_string(s.state_at_stall) << ',' << s.in_flight << ','
          << str_format("%.4f", s.rel_position) << '\n';
    }
    ++id;
  }
}

namespace {

template <typename Fn>
void write_file(const std::string& path,
                const std::vector<FlowAnalysis>& flows, Fn fn) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv: cannot open " + path);
  fn(out, flows);
  if (!out) throw std::runtime_error("csv: write failed for " + path);
}

}  // namespace

void write_flows_csv_file(const std::string& path,
                          const std::vector<FlowAnalysis>& flows) {
  write_file(path, flows,
             [](std::ostream& o, const auto& f) { write_flows_csv(o, f); });
}

void write_stalls_csv_file(const std::string& path,
                           const std::vector<FlowAnalysis>& flows) {
  write_file(path, flows,
             [](std::ostream& o, const auto& f) { write_stalls_csv(o, f); });
}

}  // namespace tapo::analysis
