// The byte codec (io/bytes.h): FNV-1a known answers, ByteReader bounds
// and diagnostics, and a pinned-seed sweep of every single-byte flip and
// truncation over frames, the CTBS fixture, a grid precompute spill entry
// and the golden trace: each must decode or fail with a diagnostic (under
// ASan, never out of bounds).
#include "io/bytes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
#include "io/network_io.h"
#include "io/snapshot.h"
#include "net/frame.h"
#include "net/trace_file.h"

namespace ctbus::io {
namespace {

#ifndef CTBUS_TEST_DATA_DIR
#error "CTBUS_TEST_DATA_DIR must point at the committed fixtures"
#endif

using Bytes = std::vector<std::uint8_t>;

Bytes ReadFixture(const std::string& name) {
  Bytes bytes;
  std::string error;
  EXPECT_TRUE(ReadFileBytes(std::string(CTBUS_TEST_DATA_DIR) + "/" + name,
                            &bytes, &error))
      << error;
  return bytes;
}

TEST(Fnv1aTest, KnownAnswers) {
  const auto fnv32 = [](const std::string& s) {
    return Fnv1a32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  const auto fnv64 = [](const std::string& s) {
    return Fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(fnv32(""), 0x811c9dc5u);
  EXPECT_EQ(fnv32("a"), 0xe40c292cu);
  EXPECT_EQ(fnv32("foobar"), 0xbf9cf968u);
  EXPECT_EQ(fnv64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, CtbsSectionChecksumsAreFnv1a64OfTheirPayloads) {
  const Bytes bytes = ReadFixture("grid.ctbs");
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes[4], kSnapshotFormatVersion);
  std::string error;
  const auto sections = InspectSnapshot(bytes.data(), bytes.size(), &error);
  ASSERT_TRUE(sections.has_value()) << error;
  ASSERT_EQ(sections->size(), 2u);  // ROAD + TRNS
  std::size_t offset = 12 + 20 * sections->size();
  for (const SnapshotSectionInfo& section : *sections) {
    ASSERT_LE(section.payload_bytes, bytes.size() - offset);
    EXPECT_EQ(section.checksum,
              Fnv1a64(bytes.data() + offset, section.payload_bytes))
        << section.tag;
    offset += section.payload_bytes;
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(ByteReaderTest, TruncationAtEveryOffsetOfEveryRead) {
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  bool flag = false;
  std::string s;
  std::vector<int> list;
  const struct {
    const char* name;
    std::function<void(Bytes*)> write;
    std::function<bool(ByteReader*)> read;
  } cases[] = {
      {"u8", [](Bytes* b) { AppendU8(b, 1); },
       [&](ByteReader* r) { return r->ReadU8("u8", &u8); }},
      {"u16", [](Bytes* b) { AppendU16(b, 2); },
       [&](ByteReader* r) { return r->ReadU16("u16", &u16); }},
      {"u32", [](Bytes* b) { AppendU32(b, 3); },
       [&](ByteReader* r) { return r->ReadU32("u32", &u32); }},
      {"u64", [](Bytes* b) { AppendU64(b, 4); },
       [&](ByteReader* r) { return r->ReadU64("u64", &u64); }},
      {"i32", [](Bytes* b) { AppendI32(b, -5); },
       [&](ByteReader* r) { return r->ReadI32("i32", &i32); }},
      {"i64", [](Bytes* b) { AppendI64(b, -6); },
       [&](ByteReader* r) { return r->ReadI64("i64", &i64); }},
      {"f64", [](Bytes* b) { AppendF64(b, 0.5); },
       [&](ByteReader* r) { return r->ReadF64("f64", &f64); }},
      {"finite", [](Bytes* b) { AppendF64(b, 1.5); },
       [&](ByteReader* r) { return r->ReadFiniteF64("finite", &f64); }},
      {"bool", [](Bytes* b) { AppendU8(b, 1); },
       [&](ByteReader* r) { return r->ReadBool("bool", &flag); }},
      {"string", [](Bytes* b) { AppendString(b, "abc"); },
       [&](ByteReader* r) { return r->ReadString("string", 8, &s); }},
      {"count",
       [](Bytes* b) {
         AppendU32(b, 2);
         AppendU64(b, 0);
       },
       [&](ByteReader* r) {
         return r->ReadCount("count", 4, &u32) && r->ReadU64("count", &u64);
       }},
      {"list", [](Bytes* b) { AppendIntList(b, {1, -2, 3}); },
       [&](ByteReader* r) { return r->ReadIntList("list", &list); }},
  };
  for (const auto& c : cases) {
    Bytes bytes;
    c.write(&bytes);
    ByteReader whole(bytes.data(), bytes.size());
    EXPECT_TRUE(c.read(&whole) && whole.ExpectEnd()) << whole.error();
    for (std::size_t size = 0; size < bytes.size(); ++size) {
      ByteReader reader(bytes.data(), size, "p: ");
      EXPECT_FALSE(c.read(&reader)) << c.name << " truncated to " << size;
      const std::string head = std::string("p: field ") + c.name;
      EXPECT_EQ(reader.error().rfind(head + " at offset ", 0), 0u)
          << reader.error();
      EXPECT_NE(reader.error().find(": truncated payload"), std::string::npos)
          << reader.error();
    }
  }
  EXPECT_EQ(list, (std::vector<int>{1, -2, 3}));
}

TEST(ByteReaderTest, DiagnosticsNamePrefixFieldOffsetAndReason) {
  const Bytes bytes = {1, 2, 3};
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  ByteReader prefixed(bytes.data(), bytes.size(), "section ROAD: ");
  EXPECT_FALSE(prefixed.ReadU32("num_vertices", &u32));
  EXPECT_FALSE(prefixed.ReadU8("later", &u8));  // the first failure sticks
  EXPECT_EQ(prefixed.error(),
            "section ROAD: field num_vertices at offset 0: truncated payload");

  ByteReader trailing(bytes.data(), bytes.size());
  bool flag = false;
  EXPECT_TRUE(trailing.ReadBool("flag", &flag) && flag);
  EXPECT_FALSE(trailing.ExpectEnd());
  EXPECT_EQ(trailing.error(),
            "field payload at offset 1: trailing bytes after last field");

  ByteReader bad_flag(bytes.data() + 1, 1);
  EXPECT_FALSE(bad_flag.ReadBool("flag", &flag));
  EXPECT_EQ(bad_flag.error(), "field flag at offset 1: flag byte not 0 or 1");

  Bytes nan;
  AppendF64(&nan, std::nan(""));
  ByteReader non_finite(nan.data(), nan.size());
  double tau = 0.0;
  EXPECT_FALSE(non_finite.ReadFiniteF64("tau", &tau));
  EXPECT_EQ(non_finite.error(), "field tau at offset 8: non-finite value");
}

TEST(ByteReaderTest, CountsAboveTheBoundOrThePayloadFailBeforeAllocating) {
  const std::vector<int> sentinel = {42};
  const auto read_list = [&sentinel](const Bytes& bytes, std::size_t bound) {
    ByteReader reader(bytes.data(), bytes.size());
    std::vector<int> out = sentinel;
    EXPECT_FALSE(reader.ReadIntList("edges", &out, bound));
    EXPECT_EQ(out, sentinel);  // untouched: nothing cleared or reserved
    return reader.error();
  };
  Bytes five;
  AppendIntList(&five, {1, 2, 3, 4, 5});
  EXPECT_EQ(read_list(five, 4),
            "field edges at offset 4: element count above bound");
  // The bound is checked before the bytes, as the frame decoder does.
  EXPECT_EQ(read_list(Bytes(five.begin(), five.begin() + 4), 4),
            "field edges at offset 4: element count above bound");
  Bytes huge;
  AppendU32(&huge, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(read_list(huge, std::numeric_limits<std::uint32_t>::max()),
            "field edges at offset 4: truncated payload");

  AppendU64(&huge, 0);
  ByteReader counts(huge.data(), huge.size());
  std::uint32_t count = 0;
  EXPECT_FALSE(counts.ReadCount("num_scores", 8, &count));
  EXPECT_EQ(counts.error(), "field num_scores at offset 4: truncated payload");
}

// ------------------------------------------------------ mutation sweep ----

/// A decoder under test: true on success, false with *error set.
using Decoder = std::function<bool(Bytes, std::string*)>;

/// Every single-byte flip (a pinned-seed nonzero mask per offset) and
/// every truncation of `corpus` must decode or fail with a diagnostic.
void SweepMutations(const char* label, const Bytes& corpus,
                    const Decoder& decode) {
  std::string error;
  ASSERT_TRUE(decode(corpus, &error)) << label << ": " << error;
  std::mt19937_64 rng(0x5eedc7b5);
  std::size_t rejected = 0;
  const auto check = [&](Bytes mutated, const std::string& what) {
    error.clear();
    if (decode(std::move(mutated), &error)) return;
    ++rejected;
    EXPECT_FALSE(error.empty()) << label << ": " << what;
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Bytes flipped = corpus;
    flipped[i] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    check(std::move(flipped), "flip at " + std::to_string(i));
  }
  for (std::size_t size = 0; size < corpus.size(); ++size) {
    check(Bytes(corpus.begin(), corpus.begin() + size),
          "truncated to " + std::to_string(size));
  }
  EXPECT_GT(rejected, 0u) << label;  // the failure paths were reached
}

/// Header, then payload. The payload checksum is deliberately not
/// enforced, so flipped payload bytes reach the field decoders.
template <typename Frame>
Decoder FrameDecoder(bool (*decode_payload)(const std::uint8_t*, std::size_t,
                                            Frame*, std::string*)) {
  return [decode_payload](Bytes bytes, std::string* error) {
    net::FrameHeader header;
    if (!net::DecodeFrameHeader(bytes.data(), bytes.size(), &header, error)) {
      return false;
    }
    Frame frame;
    return decode_payload(bytes.data() + net::kHeaderBytes,
                          bytes.size() - net::kHeaderBytes, &frame, error);
  };
}

TEST(ByteCodecMutationTest, RequestAndResponseFrames) {
  net::RequestFrame request;
  request.request_id = 11;
  request.deadline_ms = 250;
  request.request.dataset = "grid";
  request.request.options.tau = 900.0;
  SweepMutations("request frame", net::EncodeRequestFrame(request),
                 FrameDecoder(net::DecodeRequestPayload));

  net::ResponseFrame response;
  response.found = true;
  response.edges = {4, 9, 17};
  response.stops = {0, 3, 5, 8};
  response.objective = 0.75;
  response.message = "ok";
  SweepMutations("response frame", net::EncodeResponseFrame(response),
                 FrameDecoder(net::DecodeResponsePayload));
}

/// Rewrites every section checksum over its (mutated) payload, so flips
/// get past the checksum gate into the field decoders.
void RestampChecksums(Bytes* bytes) {
  const auto sections = InspectSnapshot(bytes->data(), bytes->size());
  if (!sections.has_value()) return;
  std::size_t payload = 12 + 20 * sections->size();
  for (std::size_t i = 0; i < sections->size(); ++i) {
    const std::size_t size = (*sections)[i].payload_bytes;
    const std::uint64_t sum = Fnv1a64(bytes->data() + payload, size);
    for (int b = 0; b < 8; ++b) {  // row i: tag u32, bytes u64, checksum
      (*bytes)[12 + 20 * i + 12 + b] =
          static_cast<std::uint8_t>(sum >> (8 * b));
    }
    payload += size;
  }
}

/// Sweeps a CTBS container twice: as is (flips mostly stop at the
/// checksum gate) and with checksums restamped after each mutation.
void SweepContainer(const std::string& label, const Bytes& corpus,
                    const Decoder& decode) {
  SweepMutations(label.c_str(), corpus, decode);
  SweepMutations((label + ", checksums restamped").c_str(), corpus,
                 [&decode](Bytes bytes, std::string* error) {
                   RestampChecksums(&bytes);
                   return decode(std::move(bytes), error);
                 });
}

TEST(ByteCodecMutationTest, CommittedCtbsFixture) {
  SweepContainer("grid.ctbs", ReadFixture("grid.ctbs"),
                 [](Bytes bytes, std::string* error) {
                   Snapshot snapshot;
                   return DecodeSnapshot(bytes.data(), bytes.size(),
                                         &snapshot, error);
                 });
}

TEST(ByteCodecMutationTest, GridSpillEntry) {
  // SKEY + PREC over the grid fixture: the precompute codec's only reader.
  const std::string dir = CTBUS_TEST_DATA_DIR;
  const auto road = LoadRoadNetwork(dir + "/grid_road.tsv");
  const auto transit = LoadTransitNetwork(dir + "/grid_transit.tsv");
  ASSERT_TRUE(road.has_value() && transit.has_value());
  core::CtBusOptions options;
  options.tau = 900.0;
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  PrecomputeCacheEntry entry;
  entry.dataset = "grid";
  entry.snapshot_version = 1;
  entry.network_fingerprint = NetworkFingerprint(*road, *transit);
  entry.provenance = MakeProvenance(options);
  entry.precompute =
      core::PlanningContext::RunPrecompute(*road, *transit, options);
  ASSERT_GT(entry.precompute.universe.num_new_edges(), 0);
  SweepContainer("grid spill entry", EncodePrecomputeCacheEntry(entry),
                 [](Bytes bytes, std::string* error) {
                   PrecomputeCacheEntry decoded;
                   return DecodePrecomputeCacheEntry(
                       bytes.data(), bytes.size(), &decoded, error);
                 });
}

TEST(ByteCodecMutationTest, CommittedGoldenTrace) {
  const std::string path = ::testing::TempDir() + "io_bytes_mutated.trace";
  SweepMutations("golden_grid.trace", ReadFixture("golden_grid.trace"),
                 [&path](Bytes bytes, std::string* error) {
                   if (!WriteFileBytes(path, bytes, error)) return false;
                   net::TraceFile trace;
                   return net::ReadTraceFile(path, &trace, error);
                 });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctbus::io
