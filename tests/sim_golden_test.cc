// Golden simulator digests: fixed cloud-storage and web-search flow sets run
// through workload::run_flow under four sender configurations. Each set is
// hashed (FNV-1a) over every captured packet and the sender's counters, and
// the hash is compared with a constant. The simulator is deterministic, so a
// moved constant means a changed event order, SACK or loss decision, or
// captured byte — never just a faster or slower simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/profiles.h"

namespace tapo::workload {
namespace {

// At seed 2015 these sets hold ~280k cloud and ~35k web packets per
// variant, with fast retransmits, RTOs and DSACKs under every variant, and
// TLP probes, S-RTO probes and spurious-probe verdicts under the variants
// that enable them.
constexpr std::uint64_t kSeed = 2015;
constexpr std::size_t kCloudFlows = 150;
constexpr std::size_t kWebFlows = 1500;

class Fnv1a {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct SenderVariant {
  const char* name;
  void (*apply)(tcp::SenderConfig&);
  std::uint64_t cloud_digest;
  std::uint64_t web_digest;
};

void fold_trace(const net::PacketTrace& trace, Fnv1a& h) {
  h.word(trace.size());
  for (const net::CapturedPacket& p : trace.packets()) {
    h.word(static_cast<std::uint64_t>(p.timestamp.us()));
    h.word(p.tcp.seq.raw());
    h.word(p.tcp.ack.raw());
    h.word(p.tcp.flags.to_byte());
    h.word(p.payload_len);
    h.word(p.tcp.window);
    h.word(p.tcp.sack_blocks.size());
    for (const net::SackBlock& b : p.tcp.sack_blocks) {
      h.word(b.start.raw());
      h.word(b.end.raw());
    }
  }
}

void fold_stats(const tcp::SenderStats& s, Fnv1a& h) {
  for (const std::uint64_t v :
       {s.segments_sent, s.bytes_sent, s.retransmissions, s.fast_retransmits,
        s.rto_fires, s.tlp_probes, s.srto_probes, s.persist_probes,
        s.zero_window_episodes, s.dsacks_received, s.srto_spurious_probes}) {
    h.word(v);
  }
}

/// Runs `flows` flows of `profile`, seeded like the parallel runner, with
/// `variant` applied to each flow's sender, and hashes what they produce.
std::uint64_t digest(const ServiceProfile& profile, std::size_t flows,
                     const SenderVariant& variant) {
  Fnv1a h;
  Rng master(kSeed);
  for (std::size_t i = 0; i < flows; ++i) {
    Rng flow_rng(master.split_seed());
    FlowScenario scenario = draw_scenario(profile, flow_rng, i + 1);
    variant.apply(scenario.connection.sender);
    const FlowOutcome out =
        run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                 TraceCapture::kServerNic);
    fold_trace(*out.trace, h);
    fold_stats(out.sender_stats, h);
  }
  return h.value();
}

const SenderVariant kVariants[] = {
    {"Native",
     [](tcp::SenderConfig& s) { s.recovery = tcp::RecoveryMechanism::kNative; },
     0xd34b9a6ad40c059d, 0x7bd5ea4c8955d5c6},
    {"Tlp",
     [](tcp::SenderConfig& s) { s.recovery = tcp::RecoveryMechanism::kTlp; },
     0xe76ce4ca1f0b72f2, 0xa6e942b8e1605dea},
    {"Srto",
     [](tcp::SenderConfig& s) { s.recovery = tcp::RecoveryMechanism::kSrto; },
     0x03b3b37172b8ec79, 0x363e33671ec8cfb2},
    {"SrtoAdaptivePacing",
     [](tcp::SenderConfig& s) {
       s.recovery = tcp::RecoveryMechanism::kSrto;
       s.srto.adaptive = true;
       s.pacing = true;
     },
     0x078c3a630c66effd, 0x02be3da316725d5d},
};

void PrintTo(const SenderVariant& v, std::ostream* os) { *os << v.name; }

class SimGolden : public ::testing::TestWithParam<SenderVariant> {};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST_P(SimGolden, DigestsMatch) {
  const SenderVariant& v = GetParam();
  const std::uint64_t cloud = digest(cloud_storage_profile(), kCloudFlows, v);
  const std::uint64_t web = digest(web_search_profile(), kWebFlows, v);
  EXPECT_EQ(hex(cloud), hex(v.cloud_digest)) << "cloud-storage flows";
  EXPECT_EQ(hex(web), hex(v.web_digest)) << "web-search flows";
}

INSTANTIATE_TEST_SUITE_P(Senders, SimGolden, ::testing::ValuesIn(kVariants),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace tapo::workload
