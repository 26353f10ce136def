#include "workload/profiles.h"

#include <algorithm>
#include <cmath>

namespace tapo::workload {

const char* to_string(Service s) {
  switch (s) {
    case Service::kCloudStorage: return "cloud storage";
    case Service::kSoftwareDownload: return "software download";
    case Service::kWebSearch: return "web search";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kMss = 1448;

tcp::SenderConfig default_sender() {
  tcp::SenderConfig s;
  s.mss = kMss;
  s.init_cwnd = 3;
  s.cc = tcp::CcAlgo::kCubic;  // kernel 2.6.32 default
  s.recovery = tcp::RecoveryMechanism::kNative;
  return s;
}

double lognorm_mu_for_mean(double mean, double sigma) {
  return std::log(mean) - sigma * sigma / 2.0;
}

}  // namespace

ServiceProfile cloud_storage_profile() {
  ServiceProfile p;
  p.name = "cloud_storage";
  p.service = Service::kCloudStorage;

  // Connections are shared across file-chunk requests (§2.1): several
  // requests per connection, ~500 KB each, totalling ~1.7 MB (Table 1).
  p.min_requests = 1;
  p.max_requests = 6;
  p.resp_lognorm_sigma = 1.3;
  p.resp_lognorm_mu = lognorm_mu_for_mean(490e3, p.resp_lognorm_sigma);
  p.resp_min_bytes = 8 * 1024;
  p.resp_max_bytes = 24ull * 1024 * 1024;
  p.request_bytes = 350;

  // Client mixture: generous windows (Table 4 buckets 45/182/648/1297 MSS)
  // with a slow-reader sub-population that shrinks as buffers grow.
  p.rwnd_mix = {
      {0.24, 45 * kMss, false, 45 * kMss, 0, 0, {}},
      {0.06, 45 * kMss, false, 45 * kMss, 350'000, 96 * 1024,
       Duration::millis(1400)},
      {0.25, 182 * kMss, false, 182 * kMss, 0, 0, {}},
      {0.05, 182 * kMss, false, 182 * kMss, 450'000, 256 * 1024,
       Duration::millis(1400)},
      {0.22, 648 * kMss, false, 648 * kMss, 0, 0, {}},
      {0.03, 648 * kMss, false, 648 * kMss, 500'000, 384 * 1024,
       Duration::millis(1500)},
      {0.14, 1297 * kMss, false, 1297 * kMss, 0, 0, {}},
      {0.01, 1297 * kMss, false, 1297 * kMss, 600'000, 512 * 1024,
       Duration::millis(1500)},
  };
  p.client_idle_prob = 0.35;           // gaps between chunk requests
  p.client_idle_mean = Duration::millis(750);
  p.first_gap_prob = 0.02;
  p.first_gap_mean = Duration::millis(1000);

  p.backend_miss_prob = 0.40;          // client-specific content (§3.4)
  p.backend_delay_mean = Duration::millis(600);
  p.chunked_prob = 0.04;
  p.chunk_bytes = 48 * 1024;
  p.chunk_interval_mean = Duration::millis(500);

  p.path.rtt_lognorm_sigma = 1.1;
  p.path.rtt_lognorm_mu = lognorm_mu_for_mean(80.0, 1.1);
  p.path.loss_mean = 0.02;
  p.path.burst_prob = 0.30;
  p.path.deep_burst_frac = 0.20;
  p.path.ack_loss_frac = 0.3;
  p.slow_delack_prob = 0.03;
  p.sender = default_sender();
  p.sender.srto.t1 = 10;  // paper's cloud-storage setting (§5.1)
  return p;
}

ServiceProfile software_download_profile() {
  ServiceProfile p;
  p.name = "software_download";
  p.service = Service::kSoftwareDownload;

  // Dedicated connection per file, ~129 KB average (Table 1).
  p.min_requests = 1;
  p.max_requests = 1;
  p.resp_lognorm_sigma = 1.0;
  p.resp_lognorm_mu = lognorm_mu_for_mean(129e3, 1.0);
  p.resp_min_bytes = 4 * 1024;
  p.resp_max_bytes = 8ull * 1024 * 1024;
  p.request_bytes = 250;

  // Old client software with tiny fixed receive buffers (Fig. 6: 18% of
  // flows below 10 MSS, some at 2 MSS).
  p.rwnd_mix = {
      {0.055, 2 * kMss, false, 2 * kMss, 170'000, 32 * 1024,
       Duration::millis(800)},
      {0.045, 2 * kMss, false, 2 * kMss, 0, 0, {}},
      {0.050, 11 * kMss, false, 11 * kMss, 220'000, 64 * 1024,
       Duration::millis(800)},
      {0.040, 11 * kMss, false, 11 * kMss, 0, 0, {}},
      {0.090, 45 * kMss, false, 45 * kMss, 330'000, 192 * 1024,
       Duration::millis(800)},
      {0.200, 45 * kMss, false, 45 * kMss, 0, 0, {}},
      {0.015, 182 * kMss, false, 182 * kMss, 380'000, 768 * 1024,
       Duration::millis(800)},
      {0.185, 182 * kMss, false, 182 * kMss, 0, 0, {}},
      {0.320, 64 * 1024, true, 1024 * 1024, 0, 0, {}},
  };
  p.client_idle_prob = 0.0;

  p.backend_miss_prob = 0.15;          // static objects, partly cached
  p.backend_delay_mean = Duration::millis(700);
  p.chunked_prob = 0.12;               // synchronized release-day load
  p.chunk_bytes = 48 * 1024;
  p.chunk_interval_mean = Duration::millis(600);
  p.first_gap_prob = 0.03;
  p.first_gap_mean = Duration::millis(2000);

  p.path.rtt_lognorm_sigma = 1.1;
  p.path.rtt_lognorm_mu = lognorm_mu_for_mean(85.0, 1.1);
  p.path.loss_mean = 0.032;
  p.path.burst_prob = 0.30;
  p.path.deep_burst_frac = 0.18;
  p.path.ack_loss_frac = 0.45;
  p.slow_delack_prob = 0.08;
  p.sender = default_sender();
  p.sender.srto.t1 = 10;
  return p;
}

ServiceProfile web_search_profile() {
  ServiceProfile p;
  p.name = "web_search";
  p.service = Service::kWebSearch;

  // Short, latency-sensitive flows, ~14 KB average, some single-packet.
  p.min_requests = 1;
  p.max_requests = 1;
  p.resp_lognorm_sigma = 1.4;
  p.resp_lognorm_mu = lognorm_mu_for_mean(14e3, 1.4);
  p.resp_min_bytes = 350;
  p.resp_max_bytes = 200 * 1024;
  p.request_bytes = 420;

  p.rwnd_mix = {
      {0.92, 64 * 1024, true, 1024 * 1024, 0},
      {0.08, 16 * 1024, false, 16 * 1024, 0},
  };
  p.client_idle_prob = 0.0;

  p.backend_miss_prob = 0.35;          // dynamic results from back-ends
  p.backend_delay_mean = Duration::millis(75);
  p.first_gap_prob = 0.0;
  p.first_gap_mean = Duration::millis(800);
  p.chunked_prob = 0.01;
  p.chunk_bytes = 8 * 1024;
  p.chunk_interval_mean = Duration::millis(400);

  p.path.rtt_lognorm_sigma = 1.1;
  p.path.rtt_lognorm_mu = lognorm_mu_for_mean(65.0, 1.1);
  p.path.loss_mean = 0.045;
  p.path.clean_prob = 0.68;
  p.path.burst_prob = 0.22;
  p.path.deep_burst_frac = 0.40;
  p.path.ack_loss_frac = 0.12;
  p.sender = default_sender();
  p.sender.srto.t1 = 5;  // paper's web-search setting (§5.1)
  return p;
}

ServiceProfile profile_for(Service s) {
  switch (s) {
    case Service::kCloudStorage: return cloud_storage_profile();
    case Service::kSoftwareDownload: return software_download_profile();
    case Service::kWebSearch: return web_search_profile();
  }
  return web_search_profile();
}

FlowScenario draw_scenario(const ServiceProfile& profile, Rng& rng,
                           std::uint64_t flow_id) {
  FlowScenario sc;

  // Path characteristics.
  const double rtt_ms = std::clamp(
      rng.lognormal(profile.path.rtt_lognorm_mu, profile.path.rtt_lognorm_sigma),
      profile.path.rtt_min_ms, profile.path.rtt_max_ms);
  const Duration one_way = Duration::seconds(rtt_ms / 2000.0);
  const double loss =
      rng.chance(profile.path.clean_prob)
          ? rng.uniform(0.0, profile.path.clean_loss_max)
          : std::min(rng.exponential(profile.path.loss_mean),
                     profile.path.loss_cap);
  const bool heavy_jitter = rng.chance(profile.path.heavy_jitter_prob);
  const double jfrac =
      heavy_jitter ? profile.path.jitter_frac_heavy : profile.path.jitter_frac;
  const Duration jitter = Duration::seconds(rtt_ms / 1000.0 * jfrac);
  const bool bursty = rng.chance(profile.path.burst_prob);

  sc.down_link.prop_delay = one_way;
  sc.down_link.jitter_mean = jitter;
  if (rng.chance(profile.path.delay_burst_flow_prob)) {
    sc.down_link.delay_burst_prob = profile.path.delay_burst_prob;
    sc.down_link.delay_burst_duration = profile.path.delay_burst_duration;
    sc.down_link.delay_burst_extra = Duration::seconds(
        rtt_ms / 1000.0 * profile.path.delay_burst_extra_rtt);
  }
  sc.down_link.reorder_prob = profile.path.reorder_prob;
  sc.down_link.reorder_delay =
      Duration::seconds(rtt_ms / 1000.0 * profile.path.reorder_delay_frac);
  sc.down_link.random_loss = loss;
  sc.down_link.bandwidth_Bps = profile.path.bandwidth_Bps;
  sc.down_link.queue_packets = profile.path.queue_packets;
  if (rng.chance(profile.path.bottleneck_prob)) {
    sc.down_link.bandwidth_Bps = std::max<std::uint64_t>(
        profile.path.bottleneck_min_Bps,
        static_cast<std::uint64_t>(rng.lognormal(
            profile.path.bottleneck_lognorm_mu,
            profile.path.bottleneck_lognorm_sigma)));
    sc.down_link.queue_packets = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(profile.path.bottleneck_queue_min),
        static_cast<std::int64_t>(profile.path.bottleneck_queue_max)));
  }
  if (bursty) {
    const bool deep = rng.chance(profile.path.deep_burst_frac);
    sc.down_link.p_good_to_bad = profile.path.burst_p_good_to_bad;
    sc.down_link.burst_duration = deep ? profile.path.deep_burst_duration
                                       : profile.path.burst_duration;
    sc.down_link.bad_loss =
        deep ? profile.path.deep_bad_loss : profile.path.burst_bad_loss;
  }

  sc.up_link.prop_delay = one_way;
  sc.up_link.jitter_mean = jitter;
  sc.up_link.random_loss = loss * profile.path.ack_loss_frac;

  // Connection 4-tuple: unique client per flow, fixed server.
  auto& key = sc.connection.client_to_server;
  key.src_ip = 0x0a000000u | static_cast<std::uint32_t>(flow_id & 0xffffff);
  key.src_port = static_cast<std::uint16_t>(40000 + (flow_id % 20000));
  key.dst_ip = 0xc0a80101u;  // 192.168.1.1
  key.dst_port = 80;

  // Sender / receiver.
  sc.connection.sender = profile.sender;

  double total_w = 0;
  for (const auto& c : profile.rwnd_mix) total_w += c.weight;
  double pick = rng.next_double() * total_w;
  const RwndClass* cls = &profile.rwnd_mix.back();
  for (const auto& c : profile.rwnd_mix) {
    if (pick < c.weight) {
      cls = &c;
      break;
    }
    pick -= c.weight;
  }
  auto& rcv = sc.connection.receiver;
  rcv.mss = profile.sender.mss;
  rcv.init_rwnd_bytes = cls->init_rwnd_bytes;
  rcv.window_autotune = cls->autotune;
  rcv.max_rwnd_bytes = cls->max_rwnd_bytes;
  rcv.app_read_Bps = cls->app_read_Bps;
  rcv.pause_every_bytes = cls->pause_every_bytes;
  rcv.pause_duration = cls->pause_duration;
  // Delayed-ACK behaviour varies across client stacks; RFC 1122 allows up
  // to 500 ms and some embedded stacks use it (§4.3 "ACK delay or loss").
  const double delack_draw = rng.next_double();
  if (delack_draw < profile.slow_delack_prob) {
    rcv.delack_timeout = Duration::millis(450);
  } else if (delack_draw < profile.slow_delack_prob + 0.08) {
    rcv.delack_timeout = Duration::millis(200);
  } else {
    rcv.delack_timeout = Duration::millis(40);
  }

  // Requests.
  const int n_requests =
      static_cast<int>(rng.uniform_int(profile.min_requests, profile.max_requests));
  for (int i = 0; i < n_requests; ++i) {
    tcp::RequestSpec req;
    req.request_bytes = profile.request_bytes;
    req.response_bytes = static_cast<std::uint64_t>(std::clamp<double>(
        rng.lognormal(profile.resp_lognorm_mu, profile.resp_lognorm_sigma),
        static_cast<double>(profile.resp_min_bytes),
        static_cast<double>(profile.resp_max_bytes)));
    if (i > 0 && rng.chance(profile.client_idle_prob)) {
      req.client_gap = Duration::seconds(
          rng.exponential(profile.client_idle_mean.sec()));
    } else if (i == 0 && rng.chance(profile.first_gap_prob)) {
      req.client_gap =
          Duration::seconds(rng.exponential(profile.first_gap_mean.sec()));
    }
    if (rng.chance(profile.backend_miss_prob)) {
      req.server_think =
          Duration::seconds(rng.exponential(profile.backend_delay_mean.sec()));
    }
    if (rng.chance(profile.chunked_prob)) {
      req.chunk_bytes = profile.chunk_bytes;
      req.chunk_interval = Duration::seconds(
          rng.exponential(profile.chunk_interval_mean.sec()));
    }
    sc.connection.requests.push_back(req);
  }
  return sc;
}

}  // namespace tapo::workload
