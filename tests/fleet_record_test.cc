// FlowRecord binary format: lossless round-trip, typed errors with file
// offsets, and the corruption-robustness property tests (bit flips and
// truncations must yield valid-prefix records plus a typed error — never
// a crash or UB; the full ctest suite runs under ASan/UBSan in CI, which
// is what makes these property tests a memory-safety gate).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "fleet/record.h"
#include "fleet/record_sink.h"
#include "util/rng.h"
#include "workload/profiles.h"
#include "workload/runner.h"

namespace tapo::fleet {
namespace {

FlowRecord sample_record(std::uint64_t i) {
  FlowRecord r;
  r.shard_id = static_cast<std::uint32_t>(7 + i);
  r.service = static_cast<std::uint8_t>(i % 3);
  r.flow_index = i;
  r.start_us = static_cast<std::int64_t>(i) * 500'000 - 1'000'000;  // negative too
  r.transmission_us = 1'200'000 + static_cast<std::int64_t>(i * 7919);
  r.stalled_us = static_cast<std::int64_t>(i % 5) * 210'000;
  r.completed = i % 4 != 0;
  r.response_bytes = 100'000 + i * 13;
  r.unique_bytes = 99'000 + i * 11;
  r.packets = 80 + i;
  r.data_segments = 70 + i;
  r.retrans_segments = i % 6;
  r.timeout_retrans = i % 3;
  r.fast_retrans = i % 2;
  r.spurious_retrans = i % 7 == 0 ? 1 : 0;
  r.init_rwnd_bytes = static_cast<std::uint32_t>(65535 * ((i % 4) + 1));
  r.had_zero_rwnd = i % 9 == 0;
  r.degraded = i % 11 == 0;
  r.suspect_stalls = i % 11 == 0 ? 2 : 0;
  r.avg_rtt_us = 35'000.25 + static_cast<double>(i) * 0.125;
  r.avg_rto_us = 230'017.75 - static_cast<double>(i) * 0.5;
  for (std::uint64_t s = 0; s < i % 5; ++s) {
    StallEntry e;
    e.cause = static_cast<std::uint8_t>(s % 7);
    e.retrans_cause = static_cast<std::uint8_t>((s + i) % 8);
    e.duration_us = 400'000 + static_cast<std::int64_t>(s) * 123'456;
    r.stalls.push_back(e);
  }
  return r;
}

std::vector<std::uint8_t> sample_file(std::size_t n) {
  std::vector<std::uint8_t> bytes;
  append_file_header(bytes);
  for (std::size_t i = 0; i < n; ++i) append_record(bytes, sample_record(i));
  return bytes;
}

TEST(FleetRecord, RoundTripIsLosslessForEveryField) {
  std::vector<FlowRecord> originals;
  for (std::uint64_t i = 0; i < 40; ++i) originals.push_back(sample_record(i));

  std::ostringstream os;
  RecordWriter writer(os);
  for (const FlowRecord& r : originals) writer.write(r);
  EXPECT_EQ(writer.records(), originals.size());

  const std::string blob = os.str();
  const auto result = read_records(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()));
  ASSERT_TRUE(result.ok()) << to_string(result.error->kind);
  ASSERT_EQ(result.records.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(result.records[i], originals[i]) << "record " << i;
  }
  EXPECT_EQ(result.bytes_consumed, blob.size());
}

TEST(FleetRecord, DoubleBitPatternsSurviveRoundTrip) {
  FlowRecord r = sample_record(3);
  r.avg_rtt_us = 0.1 + 0.2;  // a value with a messy mantissa
  r.avg_rto_us = -0.0;
  std::vector<std::uint8_t> bytes;
  append_file_header(bytes);
  append_record(bytes, r);
  const auto result = read_records(bytes);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], r);
  EXPECT_TRUE(std::signbit(result.records[0].avg_rto_us));
}

TEST(FleetRecord, EmptyDataHoldsZeroRecords) {
  const auto result = read_records({});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.records.empty());
}

TEST(FleetRecord, HeaderErrorsAreTyped) {
  auto bytes = sample_file(2);

  auto short_hdr = std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 5);
  auto r1 = read_records(short_hdr);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error->kind, RecordErrorKind::kTruncatedHeader);

  auto bad_magic = bytes;
  bad_magic[1] ^= 0xFF;
  auto r2 = read_records(bad_magic);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error->kind, RecordErrorKind::kBadMagic);
  EXPECT_TRUE(r2.records.empty());

  auto bad_version = bytes;
  bad_version[4] = 99;
  auto r3 = read_records(bad_version);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.error->kind, RecordErrorKind::kBadVersion);
  EXPECT_EQ(r3.error->offset, 4u);
}

TEST(FleetRecord, CrcCatchesPayloadMutationWithFrameOffset) {
  std::vector<std::uint8_t> bytes;
  append_file_header(bytes);
  append_record(bytes, sample_record(0));
  const std::size_t second_frame = bytes.size();
  append_record(bytes, sample_record(1));

  auto corrupt = bytes;
  corrupt[second_frame + 3] ^= 0x40;  // inside record 1's payload
  const auto result = read_records(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->kind, RecordErrorKind::kCrcMismatch);
  EXPECT_EQ(result.error->offset, second_frame);
  ASSERT_EQ(result.records.size(), 1u);  // the valid prefix survives
  EXPECT_EQ(result.records[0], sample_record(0));
}

TEST(FleetRecord, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  std::vector<std::uint8_t> bytes;
  append_file_header(bytes);
  // Varint length of ~2^40: far beyond kMaxRecordPayload.
  for (int i = 0; i < 5; ++i) bytes.push_back(0xFF);
  bytes.push_back(0x7F);
  const auto result = read_records(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->kind, RecordErrorKind::kOversizedRecord);
  EXPECT_EQ(result.error->offset, kFileHeaderBytes);
}

TEST(FleetRecord, TruncationSweepAlwaysYieldsValidPrefix) {
  const auto bytes = sample_file(12);
  const auto full = read_records(bytes);
  ASSERT_TRUE(full.ok());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const auto result = read_records(
        std::span<const std::uint8_t>(bytes.data(), cut));
    // Prefix property: every returned record matches the pristine read.
    ASSERT_LE(result.records.size(), full.records.size());
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      ASSERT_EQ(result.records[i], full.records[i])
          << "cut=" << cut << " record " << i;
    }
    if (result.error.has_value()) {
      EXPECT_LE(result.error->offset, cut);
    } else {
      // No error only when the cut landed exactly on a frame boundary
      // (or inside the never-started file: cut == 0).
      EXPECT_TRUE(cut == 0 || result.bytes_consumed == cut);
    }
  }
}

TEST(FleetRecord, RandomByteFlipsNeverCrashAndKeepPrefix) {
  const auto bytes = sample_file(20);
  const auto full = read_records(bytes);
  ASSERT_TRUE(full.ok());

  Rng rng(0xF1EE7);
  for (int iter = 0; iter < 3000; ++iter) {
    auto corrupt = bytes;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      corrupt[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    const auto result = read_records(corrupt);
    ASSERT_LE(result.records.size(), full.records.size());
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      ASSERT_EQ(result.records[i], full.records[i]) << "iter " << iter;
    }
    if (result.error.has_value()) {
      EXPECT_LE(result.error->offset, corrupt.size()) << "iter " << iter;
    }
  }
}

TEST(FleetRecord, RandomTruncationPlusFlipNeverCrashes) {
  const auto bytes = sample_file(16);
  Rng rng(0xBADF00D);
  for (int iter = 0; iter < 2000; ++iter) {
    auto corrupt = bytes;
    corrupt.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
    if (!corrupt.empty()) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupt.size()) - 1));
      corrupt[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    const auto result = read_records(corrupt);  // must not crash / UB
    if (result.error.has_value()) {
      EXPECT_LE(result.error->offset, corrupt.size());
      EXPECT_NE(std::string(to_string(result.error->kind)), "?");
    }
  }
}

TEST(FleetRecord, MalformedEnumAndBoolValuesAreRejected) {
  // Encode a record whose stall cause is out of range; the encoder writes
  // whatever the struct holds and the CRC is valid over it, so only the
  // reader's field validation can catch it.
  FlowRecord bad = sample_record(4);
  ASSERT_FALSE(bad.stalls.empty());
  bad.stalls.back().cause = 42;
  std::vector<std::uint8_t> bytes;
  append_file_header(bytes);
  append_record(bytes, bad);
  const auto result = read_records(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->kind, RecordErrorKind::kMalformedPayload);
  EXPECT_EQ(result.error->offset, kFileHeaderBytes);
}

TEST(FleetRecord, MissingFileIsATypedIoError) {
  const auto result = read_record_file("/nonexistent/fleet/records.tflr");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->kind, RecordErrorKind::kIoError);
}

TEST(FleetRecordSink, RunnerActsAsOneServerShard) {
  const workload::ExperimentConfig cfg{
      .profile = workload::profile_for(workload::Service::kWebSearch),
      .flows = 12,
      .seed = 77};
  std::ostringstream os;
  RecordWriter writer(os);
  RecordSink sink(writer,
                  {.shard_id = 3, .service = 2, .base_time_us = 1'000'000});
  workload::ParallelRunner runner(cfg);
  runner.run(sink);

  EXPECT_EQ(sink.records(), 12u);
  const std::string blob = os.str();
  const auto result = read_records(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.records.size(), 12u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const FlowRecord& r = result.records[i];
    EXPECT_EQ(r.shard_id, 3u);
    EXPECT_EQ(r.service, 2u);
    EXPECT_EQ(r.flow_index, i);
    EXPECT_EQ(r.start_us,
              1'000'000 + static_cast<std::int64_t>(i) * kFlowSpacing.us());
    EXPECT_GT(r.packets, 0u);
    EXPECT_GT(r.transmission_us, 0);
  }
}

TEST(FleetRecordSink, EmissionIsDeterministicAcrossRuns) {
  const auto emit = [] {
    const workload::ExperimentConfig cfg{
        .profile = workload::profile_for(workload::Service::kCloudStorage),
        .flows = 8,
        .seed = 5};
    std::ostringstream os;
    RecordWriter writer(os);
    RecordSink sink(writer, {.shard_id = 1});
    workload::ParallelRunner runner(cfg);
    runner.run(sink);
    return os.str();
  };
  EXPECT_EQ(emit(), emit());
}

}  // namespace
}  // namespace tapo::fleet
