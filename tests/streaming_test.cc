// Streaming-pipeline tests: chunked ingest and the live analysis engine
// must be bit-identical to the batch path for every chunk granularity and
// workload profile (with and without capture impairments), budgets must
// bound residency deterministically, the streaming reader must agree with
// read_stream across the reader's read blocks, and pcap parse errors must
// locate the bad record by index and absolute file offset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/chunk.h"
#include "pcap/pcap.h"
#include "sim/capture_channel.h"
#include "tapo/analyzer.h"
#include "tapo/live.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/profiles.h"

#include "support/analysis_collector.h"
#include "support/expect_same_analysis.h"
#include "support/pcap_files.h"

namespace tapo::analysis {
namespace {

using test::expect_same_analysis;

void expect_same_result(const AnalysisResult& a, const AnalysisResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    expect_same_analysis(a.flows[i], b.flows[i]);
  }
}

/// Simulates `n_flows` flows of `profile` and merges their server-NIC
/// captures into one time-sorted arena.
net::PacketTrace merged_trace(const workload::ServiceProfile& profile,
                              std::uint64_t seed, std::uint64_t n_flows) {
  Rng master(seed);
  net::PacketTrace merged;
  for (std::uint64_t f = 0; f < n_flows; ++f) {
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(profile, flow_rng, f);
    auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    if (!outcome.trace.has_value()) {
      ADD_FAILURE() << "flow " << f << " produced no capture";
      continue;
    }
    for (const auto& p : outcome.trace->packets()) merged.add(p);
  }
  merged.sort_by_time();
  return merged;
}

struct ProfileCase {
  const char* name;
  workload::ServiceProfile profile;
};

std::vector<ProfileCase> all_profiles() {
  return {{"cloud_storage", workload::cloud_storage_profile()},
          {"software_download", workload::software_download_profile()},
          {"web_search", workload::web_search_profile()}};
}

struct ChunkCase {
  const char* name;
  std::size_t packets;
};

/// The ISSUE-mandated chunk granularities: one packet, ~4 KiB, ~1 MiB, and
/// the whole trace in one chunk.
std::vector<ChunkCase> chunk_cases(std::size_t whole_trace_packets) {
  const auto per = sizeof(net::CapturedPacket);
  return {{"1pkt", 1},
          {"4KiB", std::max<std::size_t>(1, 4096 / per)},
          {"1MiB", std::max<std::size_t>(1, (std::size_t{1} << 20) / per)},
          {"whole", std::max<std::size_t>(1, whole_trace_packets)}};
}

/// Rebuilds `trace` as a retained ChunkedTrace of the given granularity.
net::ChunkedTrace rechunk(const net::PacketTrace& trace,
                          std::size_t chunk_packets) {
  net::ChunkedTrace chunks(chunk_packets);
  for (const auto& pkt : trace.packets()) chunks.add(pkt);
  return chunks;
}

/// Streams `trace` through a pcap file and an unbounded LiveAnalyzer in
/// `chunk_packets`-sized chunks — the full production streaming pipeline —
/// and returns the flows restored to first-packet order (what the batch
/// path emits).
AnalysisResult analyze_via_streaming_pipeline(const net::PacketTrace& trace,
                                              std::size_t chunk_packets,
                                              util::MemoryBudget* budget,
                                              LiveStats* stats_out = nullptr) {
  std::stringstream bytes;
  pcap::write_stream(bytes, trace);

  const LiveConfig config{.idle_timeout = Duration::max(),
                          .fin_linger = Duration::max(),
                          .mem_budget = budget};
  test::AnalysisCollector sink;
  LiveAnalyzer live(config, sink);

  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> first_seen;
  pcap::StreamingReader reader(
      bytes, pcap::StreamingOptions{.chunk_packets = chunk_packets,
                                    .budget = budget});
  while (auto chunk = reader.next_chunk()) {
    for (const auto& pkt : chunk->packets()) {
      first_seen.try_emplace(pkt.key.canonical(), first_seen.size());
      live.add_packet(pkt);
    }
  }
  live.flush();
  if (stats_out != nullptr) *stats_out = live.stats();
  AnalysisResult result;
  result.flows = std::move(sink.analyses);
  std::stable_sort(result.flows.begin(), result.flows.end(),
                   [&first_seen](const FlowAnalysis& a, const FlowAnalysis& b) {
                     return first_seen.at(a.key.canonical()) <
                            first_seen.at(b.key.canonical());
                   });
  return result;
}

// ---------------------------------------------------------------------------
// The tentpole invariant: with unlimited budget, streaming output is
// bit-identical to batch output for every profile and every chunk size.
// ---------------------------------------------------------------------------

TEST(StreamingEquivalence, ChunkedAnalysisBitIdenticalToBatch) {
  const Analyzer analyzer;
  for (const auto& [pname, profile] : all_profiles()) {
    SCOPED_TRACE(pname);
    const net::PacketTrace trace = merged_trace(profile, /*seed=*/1234, 5);
    ASSERT_GT(trace.size(), 0u);
    const AnalysisResult batch = analyzer.analyze(trace);
    for (const auto& [cname, packets] : chunk_cases(trace.size())) {
      SCOPED_TRACE(cname);
      const net::ChunkedTrace chunks = rechunk(trace, packets);
      ASSERT_EQ(chunks.size(), trace.size());
      expect_same_result(analyzer.analyze(chunks), batch);
    }
  }
}

TEST(StreamingEquivalence, HoldsUnderCaptureImpairments) {
  const Analyzer analyzer;
  const sim::CaptureImpairments imp{.drop_prob = 0.02,
                                    .burst_drop_prob = 0.01,
                                    .burst_continue_prob = 0.5,
                                    .snaplen = 60,
                                    .dup_prob = 0.01,
                                    .reorder_prob = 0.05,
                                    .jitter = Duration::micros(40),
                                    .skip_first = 3,
                                    .seed = 7};
  for (const auto& [pname, profile] : all_profiles()) {
    SCOPED_TRACE(pname);
    const net::PacketTrace pristine = merged_trace(profile, /*seed=*/88, 4);
    ASSERT_GT(pristine.size(), 0u);
    const net::PacketTrace degraded = sim::apply_impairments(pristine, imp);
    const AnalysisResult batch = analyzer.analyze(degraded);
    for (const auto& [cname, packets] : chunk_cases(degraded.size())) {
      SCOPED_TRACE(cname);
      expect_same_result(analyzer.analyze(rechunk(degraded, packets)), batch);
    }
  }
}

TEST(StreamingEquivalence, FullPipelineMatchesBatchForEveryChunkSize) {
  // pcap serialization -> StreamingReader chunks -> unbounded LiveAnalyzer:
  // the whole streaming stack against batch analysis of the same bytes.
  const Analyzer analyzer;
  for (const auto& [pname, profile] : all_profiles()) {
    SCOPED_TRACE(pname);
    const net::PacketTrace trace = merged_trace(profile, /*seed=*/4321, 4);
    ASSERT_GT(trace.size(), 0u);
    std::stringstream bytes;
    pcap::write_stream(bytes, trace);
    const net::PacketTrace reread = pcap::read_stream(bytes);
    const AnalysisResult batch = analyzer.analyze(reread);
    for (const auto& [cname, packets] : chunk_cases(trace.size())) {
      SCOPED_TRACE(cname);
      const AnalysisResult streamed =
          analyze_via_streaming_pipeline(trace, packets, nullptr);
      expect_same_result(streamed, batch);
    }
  }
}

TEST(ChunkedDemux, ViewsPointIntoRetainedChunksWithoutCopying) {
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/21, 4);
  ASSERT_GT(trace.size(), 1u);
  const auto per = sizeof(net::CapturedPacket);
  for (const std::size_t packets :
       {std::size_t{1}, std::max<std::size_t>(1, 4096 / per), trace.size()}) {
    SCOPED_TRACE(packets);
    const net::ChunkedTrace chunks = rechunk(trace, packets);
    std::vector<std::span<const net::CapturedPacket>> storage;
    for (const net::TraceChunk& chunk : chunks.chunks()) {
      storage.push_back(chunk.packets());
    }
    storage.push_back(chunks.open_packets());
    const auto stored = [&storage](const net::CapturedPacket* p) {
      return std::any_of(storage.begin(), storage.end(), [p](const auto& s) {
        return !s.empty() && p >= s.data() && p < s.data() + s.size();
      });
    };

    const FlowViewSet views = demux_flow_views(chunks);
    std::size_t viewed = 0;
    for (const FlowView& view : views) {
      for (std::size_t i = 0; i < view.size(); ++i) {
        ASSERT_TRUE(stored(&view.packet(i)))
            << "packet " << i << " of a view is not chunk storage";
      }
      viewed += view.size();
    }
    EXPECT_EQ(viewed, trace.size());
  }
}

TEST(ChunkedDemux, AnalyzeAppliesDemuxOptionsLikeTheViewPath) {
  // analyze() must honour server_port exactly as demux_flow_views +
  // analyze_flow do, over both trace shapes.
  const Analyzer analyzer;
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/65, 8);
  const FlowViewSet all = demux_flow_views(trace);
  ASSERT_GT(all.size(), 2u);
  const net::FlowKey first = all[0].server_to_client;

  // The real server port, then the first flow's client port (which flips
  // every flow's orientation).
  for (const std::uint16_t port : {first.src_port, first.dst_port}) {
    SCOPED_TRACE(port);
    const DemuxOptions opts{.server_port = port};
    const FlowViewSet views = demux_flow_views(trace, opts);
    ASSERT_EQ(views.size(), all.size());
    AnalysisResult expected;
    for (const FlowView& view : views) {
      expected.flows.push_back(analyzer.analyze_flow(view));
    }
    expect_same_result(analyzer.analyze(trace, opts), expected);
    expect_same_result(
        analyzer.analyze(rechunk(trace, 4096 / sizeof(net::CapturedPacket)),
                         opts),
        expected);
  }
}

// ---------------------------------------------------------------------------
// Captures that span the reader's 16 KiB read blocks, in both formats.
// ---------------------------------------------------------------------------

constexpr std::size_t kReadBlock = 16 * 1024;

std::uint32_t get_le32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(in[at + i]);
  }
  return v;
}

/// Start offset of every record in a classic pcap file.
std::vector<std::size_t> classic_record_starts(const std::string& file) {
  std::vector<std::size_t> starts;
  for (std::size_t off = 24; off + 16 <= file.size();
       off += 16 + get_le32(file, off + 8)) {
    starts.push_back(off);
  }
  return starts;
}

struct Frame {
  std::int64_t ts_us;
  std::string bytes;  // link-layer frame
};

/// `trace` as Ethernet frames: each of the classic writer's raw IPv4
/// records behind an Ethernet header. Frame `padded` carries trailing
/// link-layer bytes up to `pad_to`, which the reader must ignore.
std::vector<Frame> ethernet_frames(const net::PacketTrace& trace,
                                   std::size_t padded, std::size_t pad_to) {
  std::stringstream raw;
  pcap::write_stream(raw, trace);
  const std::string file = raw.str();
  std::vector<Frame> frames;
  for (const std::size_t at : classic_record_starts(file)) {
    Frame f{trace[frames.size()].timestamp.us(), std::string(12, '\0')};
    f.bytes += "\x08";  // EtherType IPv4
    f.bytes += '\0';
    f.bytes += file.substr(at + 16, get_le32(file, at + 8));
    if (frames.size() == padded) f.bytes.resize(pad_to, '\0');
    frames.push_back(std::move(f));
  }
  return frames;
}

/// A classic LINKTYPE_ETHERNET capture of `frames`; `starts` receives each
/// record's offset.
std::string classic_capture(const std::vector<Frame>& frames,
                            std::vector<std::size_t>& starts) {
  std::string out;
  test::le32(out, 0xa1b2c3d4);
  test::le16(out, 2);
  test::le16(out, 4);
  test::le32(out, 0);
  test::le32(out, 0);
  test::le32(out, 256 * 1024);  // snaplen
  test::le32(out, 1);           // LINKTYPE_ETHERNET
  for (const Frame& f : frames) {
    starts.push_back(out.size());
    test::le32(out, static_cast<std::uint32_t>(f.ts_us / 1'000'000));
    test::le32(out, static_cast<std::uint32_t>(f.ts_us % 1'000'000));
    test::le32(out, static_cast<std::uint32_t>(f.bytes.size()));
    test::le32(out, static_cast<std::uint32_t>(f.bytes.size()));
    out += f.bytes;
  }
  return out;
}

/// The same frames as pcapng: an SHB, one Ethernet IDB (microsecond
/// timestamps), then one EPB per frame; `starts` receives each EPB's
/// offset.
std::string pcapng_capture(const std::vector<Frame>& frames,
                           std::vector<std::size_t>& starts) {
  std::string out;
  test::block(out, 0x0A0D0D0A, test::shb());
  test::block(out, 0x00000001, test::idb(/*LINKTYPE_ETHERNET=*/1));
  for (const Frame& f : frames) {
    starts.push_back(out.size());
    test::block(out, 0x00000006,
                test::epb(0, static_cast<std::uint64_t>(f.ts_us), f.bytes));
  }
  return out;
}

struct CaptureFormat {
  const char* name;
  std::string (*write)(const std::vector<Frame>&, std::vector<std::size_t>&);
};

std::vector<CaptureFormat> capture_formats() {
  return {{"classic", classic_capture}, {"pcapng", pcapng_capture}};
}

// ---------------------------------------------------------------------------
// StreamingReader: chunk concatenation reproduces read_stream bit for bit,
// truncation semantics included.
// ---------------------------------------------------------------------------

TEST(StreamingReader, ChunksConcatenateToReadStream) {
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/15, 3);
  ASSERT_GT(trace.size(), 0u);
  std::stringstream bytes;
  pcap::write_stream(bytes, trace);
  const std::string blob = bytes.str();

  std::stringstream batch_in(blob);
  pcap::ReadStats batch_stats;
  const net::PacketTrace batch = pcap::read_stream(batch_in, &batch_stats);

  for (const auto& [cname, packets] : chunk_cases(trace.size())) {
    SCOPED_TRACE(cname);
    std::stringstream in(blob);
    pcap::StreamingReader reader(
        in, pcap::StreamingOptions{.chunk_packets = packets});
    net::PacketTrace concat;
    while (auto chunk = reader.next_chunk()) {
      for (const auto& pkt : chunk->packets()) concat.add(pkt);
    }
    ASSERT_EQ(concat.size(), batch.size());
    for (std::size_t i = 0; i < concat.size(); ++i) {
      EXPECT_EQ(concat[i].timestamp.us(), batch[i].timestamp.us());
      EXPECT_EQ(concat[i].key, batch[i].key);
      EXPECT_EQ(concat[i].tcp.seq, batch[i].tcp.seq);
      EXPECT_EQ(concat[i].tcp.ack, batch[i].tcp.ack);
      EXPECT_EQ(concat[i].payload_len, batch[i].payload_len);
      EXPECT_EQ(concat[i].truncated, batch[i].truncated);
    }
    EXPECT_EQ(reader.stats().records, batch_stats.records);
    EXPECT_EQ(reader.stats().tcp_packets, batch_stats.tcp_packets);
    EXPECT_EQ(reader.stats().skipped, batch_stats.skipped);
  }
}

TEST(StreamingReader, KeepsCompleteRecordsOnTruncatedTail) {
  // Same rollback semantics as read_stream: a capture cut mid-record keeps
  // everything before the cut.
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/42, 1);
  ASSERT_GE(trace.size(), 3u);
  std::stringstream full;
  pcap::write_stream(full, trace);
  const std::string blob = full.str();
  // Cut inside the last record's body (records are 16-byte header + body).
  const std::string cut = blob.substr(0, blob.size() - 4);

  std::stringstream in(cut);
  pcap::StreamingReader reader(in,
                               pcap::StreamingOptions{.chunk_packets = 2});
  std::size_t total = 0;
  while (auto chunk = reader.next_chunk()) total += chunk->size();
  EXPECT_EQ(total, trace.size() - 1);
  EXPECT_EQ(reader.stats().tcp_packets, trace.size() - 1);

  // Both formats, several read blocks long with a record larger than a
  // block, cut at every byte offset inside the last two records.
  const net::PacketTrace long_trace =
      merged_trace(workload::web_search_profile(), /*seed=*/32, 4);
  ASSERT_GT(long_trace.size(), 4u);
  const std::vector<Frame> frames =
      ethernet_frames(long_trace, long_trace.size() / 2, 100'000);
  for (const CaptureFormat& format : capture_formats()) {
    SCOPED_TRACE(format.name);
    std::vector<std::size_t> starts;
    const std::string bytes = format.write(frames, starts);
    const test::ReadOutcome whole = test::read_batch(bytes);
    ASSERT_EQ(whole.packets.size(), frames.size());
    const std::size_t n = starts.size();
    for (std::size_t at = starts[n - 2]; at < bytes.size(); ++at) {
      SCOPED_TRACE(at);
      const std::string head = bytes.substr(0, at);
      const std::size_t complete = at < starts[n - 1] ? n - 2 : n - 1;
      const test::ReadOutcome batch = test::read_batch(head);
      ASSERT_EQ(batch.error, "");
      ASSERT_EQ(batch.packets.size(), complete);
      EXPECT_EQ(batch.stats.tcp_packets, complete);
      for (std::size_t i = 0; i < complete; ++i) {
        ASSERT_TRUE(test::same_packet(batch.packets[i], whole.packets[i]))
            << "packet " << i;
      }
      test::expect_same_outcome(batch, test::read_chunked(head, 1));
      test::expect_same_outcome(batch, test::read_chunked(head, 4096));
    }
  }
}

TEST(StreamingReader, AgreesWithReadStreamAcrossReadBlocks) {
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/31, 10);
  ASSERT_GT(trace.size(), 4u);
  // The middle frame outgrows the read block (under the 256 KiB cap).
  const std::size_t padded = trace.size() / 2;
  const std::vector<Frame> frames = ethernet_frames(trace, padded, 100'000);
  std::stringstream raw;
  pcap::write_stream(raw, trace);
  const net::PacketTrace expected = pcap::read_stream(raw);
  ASSERT_EQ(expected.size(), trace.size());

  for (const CaptureFormat& format : capture_formats()) {
    SCOPED_TRACE(format.name);
    std::vector<std::size_t> starts;
    const std::string bytes = format.write(frames, starts);
    ASSERT_GT(bytes.size() - frames[padded].bytes.size(), 3 * kReadBlock);

    const test::ReadOutcome batch = test::read_batch(bytes);
    ASSERT_EQ(batch.error, "");
    EXPECT_EQ(batch.stats.records, frames.size());
    EXPECT_EQ(batch.stats.skipped, 0u);
    ASSERT_EQ(batch.packets.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(test::same_packet(batch.packets[i], expected[i]))
          << "packet " << i;
      ASSERT_EQ(batch.packets[i].timestamp, trace[i].timestamp) << i;
      ASSERT_EQ(batch.packets[i].tcp.seq, trace[i].tcp.seq) << i;
      ASSERT_EQ(batch.packets[i].payload_len, trace[i].payload_len) << i;
    }
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
      SCOPED_TRACE(chunk);
      test::expect_same_outcome(batch, test::read_chunked(bytes, chunk));
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: parse errors report the absolute file offset and frame index.
// ---------------------------------------------------------------------------

/// Both readers must throw exactly `expected` on `blob`.
void expect_both_readers_throw(const std::string& blob,
                               const std::string& expected) {
  const test::ReadOutcome batch = test::read_batch(blob);
  EXPECT_EQ(batch.error, expected);
  // The streaming reader throws the identical message from next_chunk.
  // (Sealing is lazy, so the parse error can surface before the first
  // chunk is handed out — any next_chunk call may throw.)
  EXPECT_EQ(test::read_chunked(blob, 1).error, expected);
}

TEST(PcapErrors, ClassicCaplenErrorCarriesRecordIndexAndOffset) {
  // Record 2 of a one-flow capture, then the first record past the first
  // read block of a larger one.
  for (const std::uint64_t flows : {1u, 6u}) {
    SCOPED_TRACE(flows);
    const net::PacketTrace trace =
        merged_trace(workload::web_search_profile(), /*seed=*/9, flows);
    std::stringstream out;
    pcap::write_stream(out, trace);
    std::string blob = out.str();
    const std::vector<std::size_t> starts = classic_record_starts(blob);
    std::size_t index = 1;  // 0-based
    if (flows > 1) {
      while (index < starts.size() && starts[index] <= kReadBlock) ++index;
    }
    ASSERT_LT(index, starts.size());
    const std::size_t at = starts[index];

    // 8 MiB caplen (bytes [8, 12) of the record header): far over the
    // reader's 256 KiB sanity cap.
    blob[at + 8] = 0;
    blob[at + 9] = 0;
    blob[at + 10] = static_cast<char>(0x80);
    blob[at + 11] = 0;
    expect_both_readers_throw(
        blob, "pcap: absurd caplen 8388608 (record " +
                  std::to_string(index + 1) + ", offset " +
                  std::to_string(at) + ")");
  }
}

TEST(PcapErrors, PcapngBlockErrorCarriesBlockIndexAndOffset) {
  // A valid SHB, `fillers` unknown 4 KiB blocks (none, then enough to
  // pass the first read block), then a block with an absurd length.
  for (const std::uint32_t fillers : {0u, 5u}) {
    SCOPED_TRACE(fillers);
    std::string blob;
    test::block(blob, 0x0A0D0D0A, test::shb());
    for (std::uint32_t i = 0; i < fillers; ++i) {
      test::block(blob, 0x00000BAD, std::string(4096, 'x'));
    }
    const std::size_t bad = blob.size();
    test::le32(blob, 0x00000006);   // EPB type
    test::le32(blob, 0xFFFFFFF0u);  // absurd total length
    if (fillers > 0) {
      ASSERT_GT(bad, kReadBlock);
    }

    expect_both_readers_throw(
        blob, "pcapng: absurd block length 4294967280 (block " +
                  std::to_string(fillers + 2) + ", offset " +
                  std::to_string(bad) + ")");
  }
}

// ---------------------------------------------------------------------------
// MemoryBudget ledger and chunk RAII accounting.
// ---------------------------------------------------------------------------

TEST(MemoryBudget, LedgerTracksChargesReleasesAndHighWater) {
  util::MemoryBudget budget(1000);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_FALSE(budget.over_budget());
  budget.charge(600);
  EXPECT_EQ(budget.resident(), 600u);
  budget.charge(600);
  EXPECT_TRUE(budget.over_budget());
  EXPECT_EQ(budget.high_water(), 1200u);
  budget.release(700);
  EXPECT_EQ(budget.resident(), 500u);
  EXPECT_FALSE(budget.over_budget());
  // Over-release clamps to zero instead of wrapping.
  budget.release(10'000);
  EXPECT_EQ(budget.resident(), 0u);
  EXPECT_EQ(budget.high_water(), 1200u);

  util::MemoryBudget unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  unlimited.charge(std::size_t{1} << 40);
  EXPECT_FALSE(unlimited.over_budget());  // tracked, never enforced
  EXPECT_EQ(unlimited.resident(), std::size_t{1} << 40);
}

TEST(MemoryBudget, TraceChunkChargesAreRaii) {
  const std::size_t chunk_bytes = 16 * sizeof(net::CapturedPacket);
  util::MemoryBudget budget(1 << 20);
  {
    net::TraceChunk chunk(16, &budget);
    EXPECT_EQ(budget.resident(), chunk_bytes);
    // Moving transfers the charge; it is never doubled or dropped.
    net::TraceChunk moved = std::move(chunk);
    EXPECT_EQ(budget.resident(), chunk_bytes);
  }
  EXPECT_EQ(budget.resident(), 0u);
  EXPECT_EQ(budget.high_water(), chunk_bytes);
}

// ---------------------------------------------------------------------------
// ChunkedTrace: lazy sealing keeps rollback reachable across boundaries.
// ---------------------------------------------------------------------------

TEST(ChunkedTrace, LazySealingKeepsRollbackReachable) {
  std::vector<std::vector<std::uint32_t>> sealed;
  net::ChunkedTrace ct(2, [&sealed](net::TraceChunk&& c) {
    std::vector<std::uint32_t> payloads;
    for (const auto& p : c.packets()) payloads.push_back(p.payload_len);
    sealed.push_back(std::move(payloads));
  });
  net::TraceBuilder builder(ct);
  builder.begin_packet().payload_len = 1;
  builder.begin_packet().payload_len = 2;
  // The chunk is full but NOT yet emitted — rollback can still reach it.
  EXPECT_TRUE(sealed.empty());
  builder.rollback_last();
  builder.begin_packet().payload_len = 3;  // refills the slot in place
  builder.begin_packet().payload_len = 4;  // NOW the first chunk seals
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0], (std::vector<std::uint32_t>{1, 3}));
  ct.seal_open();
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_EQ(sealed[1], (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(ct.size(), 3u);
}

TEST(ChunkedTrace, RetainedModeRoundTripsThroughToTrace) {
  const net::PacketTrace trace =
      merged_trace(workload::cloud_storage_profile(), /*seed=*/2, 2);
  ASSERT_GT(trace.size(), 0u);
  const net::ChunkedTrace chunks = rechunk(trace, 7);
  const net::PacketTrace back = chunks.to_trace();
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp.us(), trace[i].timestamp.us());
    EXPECT_EQ(back[i].key, trace[i].key);
    EXPECT_EQ(back[i].tcp.seq, trace[i].tcp.seq);
  }
}

// ---------------------------------------------------------------------------
// Budget enforcement: bounded, deterministic, and surfaced in stats.
// ---------------------------------------------------------------------------

TEST(BudgetEnforcement, EvictionKeepsResidencyBoundedAndIsDeterministic) {
  // Many interleaved small flows, analyzed under a budget far smaller than
  // the trace: the pipeline must evict (not grow), keep the ledger under
  // the cap, and produce the identical result on a second run.
  net::PacketTrace trace;
  {
    Rng master(501);
    const auto profile = workload::web_search_profile();
    for (int f = 0; f < 24; ++f) {
      Rng flow_rng = master.split();
      const auto scenario = workload::draw_scenario(
          profile, flow_rng, static_cast<std::uint64_t>(f + 1));
      auto outcome = workload::run_flow(scenario, flow_rng.split(),
                                        Duration::seconds(600.0),
                                        workload::TraceCapture::kServerNic);
      ASSERT_TRUE(outcome.trace.has_value());
      for (const auto& p : outcome.trace->packets()) trace.add(p);
    }
    trace.sort_by_time();
  }
  const std::size_t trace_bytes = trace.size() * sizeof(net::CapturedPacket);
  const std::size_t limit = trace_bytes / 4;
  ASSERT_GT(limit, 16u * sizeof(net::CapturedPacket));

  auto run_once = [&](LiveStats* stats) {
    util::MemoryBudget budget(limit);
    AnalysisResult r = analyze_via_streaming_pipeline(
        trace, /*chunk_packets=*/64, &budget, stats);
    EXPECT_LE(budget.high_water(), limit)
        << "ledger peak must stay under the configured cap";
    EXPECT_EQ(budget.resident(), 0u) << "everything released at flush";
    return r;
  };

  LiveStats s1, s2;
  const AnalysisResult first = run_once(&s1);
  const AnalysisResult second = run_once(&s2);
  EXPECT_GT(s1.budget_evictions, 0u) << "undersized budget must evict";
  EXPECT_EQ(s1.budget_evictions, s2.budget_evictions);
  EXPECT_EQ(s1.flows_finalized, s2.flows_finalized);
  expect_same_result(first, second);
  // Evicted-and-restarted flows still surface: nothing silently vanishes.
  EXPECT_GE(first.flows.size(), 24u);
}

TEST(BudgetEnforcement, UnlimitedBudgetChangesNothing) {
  const Analyzer analyzer;
  const net::PacketTrace trace =
      merged_trace(workload::software_download_profile(), /*seed=*/31, 3);
  ASSERT_GT(trace.size(), 0u);
  std::stringstream bytes;
  pcap::write_stream(bytes, trace);
  const net::PacketTrace reread = pcap::read_stream(bytes);
  const AnalysisResult batch = analyzer.analyze(reread);

  util::MemoryBudget budget;  // limit 0 = unlimited, still tracked
  LiveStats stats;
  const AnalysisResult streamed = analyze_via_streaming_pipeline(
      trace, /*chunk_packets=*/64, &budget, &stats);
  EXPECT_EQ(stats.budget_evictions, 0u);
  EXPECT_GT(budget.high_water(), 0u);
  EXPECT_EQ(budget.resident(), 0u);
  expect_same_result(streamed, batch);
}

}  // namespace
}  // namespace tapo::analysis
