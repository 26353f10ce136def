// Quickstart: simulate one lossy TCP transfer, capture the server-side
// packet trace, run the TAPO analyzer on it, and print the stall report.
//
//   ./quickstart [loss] [rtt_ms] [bytes]
#include <cstdio>
#include <cstdlib>

#include "net/ipv4.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tapo/analyzer.h"
#include "tapo/report.h"
#include "tcp/connection.h"
#include "util/env.h"
#include "util/rng.h"

using namespace tapo;

namespace {

double parse_arg(const char* s, const char* name) {
  const auto v = util::parse_double(s);
  if (!v || *v < 0) {
    std::fprintf(stderr, "error: %s must be a non-negative number, got '%s'\n",
                 name, s);
    std::exit(1);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  const double loss = argc > 1 ? parse_arg(argv[1], "loss") : 0.03;
  const double rtt_ms = argc > 2 ? parse_arg(argv[2], "rtt_ms") : 120.0;
  const std::uint64_t bytes =
      argc > 3 ? static_cast<std::uint64_t>(parse_arg(argv[3], "bytes"))
               : 400 * 1024;

  // 1. A duplex path: data path with random loss, cleaner ACK path.
  sim::Simulator sim;
  sim::LinkConfig down_cfg;
  down_cfg.prop_delay = Duration::seconds(rtt_ms / 2000.0);
  down_cfg.jitter_mean = Duration::millis(2);
  down_cfg.random_loss = loss;
  sim::LinkConfig up_cfg;
  up_cfg.prop_delay = down_cfg.prop_delay;
  up_cfg.random_loss = loss / 2;
  sim::Link down(sim, down_cfg, Rng(1));
  sim::Link up(sim, up_cfg, Rng(2));

  // 2. One connection: a single HTTP-like request/response.
  tcp::ConnectionConfig cfg;
  cfg.client_to_server = {net::ipv4_from_string("10.0.0.1"),
                          net::ipv4_from_string("192.168.1.1"), 40001, 80};
  tcp::RequestSpec req;
  req.response_bytes = bytes;
  req.server_think = Duration::millis(150);  // back-end fetch
  cfg.requests.push_back(req);

  net::PacketTrace trace;
  tcp::Connection conn(sim, down, up, cfg, &trace);
  conn.start();
  sim.run_until(TimePoint::from_us(0) + Duration::seconds(600.0));

  std::printf("simulated flow: %s, %llu bytes, completed=%d, took %.3fs\n",
              cfg.client_to_server.to_string().c_str(),
              static_cast<unsigned long long>(bytes), conn.done(),
              (conn.metrics().finished - conn.metrics().syn_sent).sec());
  std::printf("sender: sent=%llu retrans=%llu rto_fires=%llu\n",
              static_cast<unsigned long long>(conn.sender().stats().segments_sent),
              static_cast<unsigned long long>(conn.sender().stats().retransmissions),
              static_cast<unsigned long long>(conn.sender().stats().rto_fires));
  std::printf("trace: %zu packets captured at the server NIC\n\n", trace.size());

  // 3. TAPO analysis of the captured trace.
  analysis::Analyzer analyzer;
  const auto result = analyzer.analyze(trace);
  for (const auto& fa : result.flows) {
    std::printf("%s", analysis::describe_flow(fa).c_str());
  }
  return 0;
}
