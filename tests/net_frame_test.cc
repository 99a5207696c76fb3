// Wire-protocol tests (src/net/frame.h): round-trip property tests over
// randomized valid frames (pinned seed), the malformed-frame corpus
// (truncated, oversized, bad magic/version/type, field corruption), and
// the deterministic-section checksum contract the record/replay harness
// depends on. Server survival under malformed input is proved separately
// in net_server_test.cc against a live connection.
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"

namespace ctbus::net {
namespace {

RequestFrame MakeRequest() {
  RequestFrame frame;
  frame.request_id = 7;
  frame.deadline_ms = 250;
  frame.request.dataset = "grid";
  frame.request.priority = service::Priority::kSweep;
  frame.request.planner = core::Planner::kVkTsp;
  frame.request.snapshot_version = 3;
  frame.request.options.k = 6;
  frame.request.options.w = 0.4;
  frame.request.options.tau = 600.0;
  frame.request.options.max_turns = 2;
  frame.request.options.seed_count = 120;
  frame.request.options.max_iterations = 500;
  frame.request.options.online_estimator = {9, 5, 17};
  frame.request.options.precompute_estimator = {4, 4, 23};
  frame.request.options.best_neighbor_only = true;
  frame.request.options.new_edges_only = false;
  return frame;
}

/// Splits an encoded frame and runs both decode stages, asserting
/// success; returns the decoded request.
RequestFrame DecodeWholeRequest(const std::vector<std::uint8_t>& frame) {
  FrameHeader header;
  std::string error;
  EXPECT_TRUE(DecodeFrameHeader(frame.data(), frame.size(), &header, &error))
      << error;
  EXPECT_EQ(header.payload_bytes, frame.size() - kHeaderBytes);
  EXPECT_EQ(header.type, FrameType::kRequest);
  RequestFrame decoded;
  EXPECT_TRUE(DecodeRequestPayload(frame.data() + kHeaderBytes,
                                   frame.size() - kHeaderBytes, &decoded,
                                   &error))
      << error;
  return decoded;
}

void ExpectRequestsEqual(const RequestFrame& a, const RequestFrame& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.request.dataset, b.request.dataset);
  EXPECT_EQ(a.request.priority, b.request.priority);
  EXPECT_EQ(a.request.planner, b.request.planner);
  EXPECT_EQ(a.request.snapshot_version, b.request.snapshot_version);
  const core::CtBusOptions& x = a.request.options;
  const core::CtBusOptions& y = b.request.options;
  EXPECT_EQ(x.k, y.k);
  EXPECT_EQ(x.w, y.w);
  EXPECT_EQ(x.tau, y.tau);
  EXPECT_EQ(x.max_turns, y.max_turns);
  EXPECT_EQ(x.seed_count, y.seed_count);
  EXPECT_EQ(x.max_iterations, y.max_iterations);
  EXPECT_EQ(x.online_estimator.probes, y.online_estimator.probes);
  EXPECT_EQ(x.online_estimator.lanczos_steps,
            y.online_estimator.lanczos_steps);
  EXPECT_EQ(x.online_estimator.seed, y.online_estimator.seed);
  EXPECT_EQ(x.precompute_estimator.probes, y.precompute_estimator.probes);
  EXPECT_EQ(x.precompute_estimator.seed, y.precompute_estimator.seed);
  EXPECT_EQ(x.best_neighbor_only, y.best_neighbor_only);
  EXPECT_EQ(x.use_domination_table, y.use_domination_table);
  EXPECT_EQ(x.seed_all_edges, y.seed_all_edges);
  EXPECT_EQ(x.new_edges_only, y.new_edges_only);
}

TEST(NetFrame, RequestRoundTrip) {
  const RequestFrame original = MakeRequest();
  ExpectRequestsEqual(original,
                      DecodeWholeRequest(EncodeRequestFrame(original)));
}

TEST(NetFrame, ResponseRoundTrip) {
  ResponseFrame original;
  original.request_id = 99;
  original.status = ResponseStatus::kOk;
  original.found = true;
  original.snapshot_version = 4;
  original.edges = {3, 1, 4, 1, 5};
  original.stops = {9, 2, 6};
  original.objective = 1.25;
  original.demand = 0.75;
  original.connectivity_increment = 0.5;
  original.iterations = 42;
  original.message = "";
  original.server_seconds = 0.125;
  original.queue_seconds = 0.0625;
  original.cache_hit = true;
  original.batch_size = 3;

  const std::vector<std::uint8_t> frame = EncodeResponseFrame(original);
  FrameHeader header;
  std::string error;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), frame.size(), &header, &error))
      << error;
  EXPECT_EQ(header.type, FrameType::kResponse);
  ResponseFrame decoded;
  ASSERT_TRUE(DecodeResponsePayload(frame.data() + kHeaderBytes,
                                    frame.size() - kHeaderBytes, &decoded,
                                    &error))
      << error;
  EXPECT_EQ(decoded.request_id, original.request_id);
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.found, original.found);
  EXPECT_EQ(decoded.snapshot_version, original.snapshot_version);
  EXPECT_EQ(decoded.edges, original.edges);
  EXPECT_EQ(decoded.stops, original.stops);
  EXPECT_EQ(decoded.objective, original.objective);
  EXPECT_EQ(decoded.demand, original.demand);
  EXPECT_EQ(decoded.connectivity_increment, original.connectivity_increment);
  EXPECT_EQ(decoded.iterations, original.iterations);
  EXPECT_EQ(decoded.message, original.message);
  EXPECT_EQ(decoded.server_seconds, original.server_seconds);
  EXPECT_EQ(decoded.queue_seconds, original.queue_seconds);
  EXPECT_EQ(decoded.cache_hit, original.cache_hit);
  EXPECT_EQ(decoded.batch_size, original.batch_size);
  EXPECT_EQ(ResponseChecksum(decoded), ResponseChecksum(original));
}

// Property test: randomized valid request frames round-trip exactly.
// Pinned seed — a failure is reproducible, and the corpus is identical
// on every run.
TEST(NetFrame, RandomizedRequestRoundTrip) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iteration = 0; iteration < 300; ++iteration) {
    RequestFrame frame;
    frame.request_id = rng();
    frame.deadline_ms = static_cast<std::uint32_t>(rng());
    const std::size_t name_length = 1 + rng() % kMaxDatasetNameBytes;
    frame.request.dataset.assign(name_length, ' ');
    for (char& c : frame.request.dataset) {
      c = static_cast<char>('a' + rng() % 26);
    }
    frame.request.priority =
        static_cast<service::Priority>(rng() % 2);
    frame.request.planner = static_cast<core::Planner>(rng() % 3);
    frame.request.snapshot_version = rng();
    core::CtBusOptions& options = frame.request.options;
    options.k = 1 + static_cast<int>(rng() % 1000000);
    options.w = unit(rng);
    options.tau = unit(rng) * 1e6;
    options.max_turns = static_cast<int>(rng() % 10);
    options.seed_count = static_cast<int>(rng() % 10000);
    options.max_iterations = 1 + static_cast<int>(rng() % 100000);
    options.online_estimator.probes = 1 + static_cast<int>(rng() % 100000);
    options.online_estimator.lanczos_steps =
        1 + static_cast<int>(rng() % 10000);
    options.online_estimator.seed = rng();
    options.precompute_estimator.probes =
        1 + static_cast<int>(rng() % 100000);
    options.precompute_estimator.lanczos_steps =
        1 + static_cast<int>(rng() % 10000);
    options.precompute_estimator.seed = rng();
    options.best_neighbor_only = rng() % 2 == 0;
    options.use_domination_table = rng() % 2 == 0;
    options.seed_all_edges = rng() % 2 == 0;
    options.new_edges_only = rng() % 2 == 0;

    ExpectRequestsEqual(frame, DecodeWholeRequest(EncodeRequestFrame(frame)));
  }
}

TEST(NetFrame, RandomizedResponseRoundTrip) {
  std::mt19937_64 rng(11221122);
  std::uniform_real_distribution<double> value(-1e9, 1e9);
  for (int iteration = 0; iteration < 300; ++iteration) {
    ResponseFrame frame;
    frame.request_id = rng();
    frame.status = static_cast<ResponseStatus>(rng() % 5);
    frame.found = rng() % 2 == 0;
    frame.snapshot_version = rng();
    frame.edges.resize(rng() % 64);
    for (int& e : frame.edges) e = static_cast<int>(rng() % 100000);
    frame.stops.resize(rng() % 64);
    for (int& s : frame.stops) s = static_cast<int>(rng() % 100000);
    frame.objective = value(rng);
    frame.demand = value(rng);
    frame.connectivity_increment = value(rng);
    frame.iterations = static_cast<std::int32_t>(rng() % 100000);
    frame.message.assign(rng() % 100, 'x');
    frame.server_seconds = value(rng);
    frame.queue_seconds = value(rng);
    frame.cache_hit = rng() % 2 == 0;
    frame.batch_size = static_cast<std::uint32_t>(rng() % 64);

    const std::vector<std::uint8_t> encoded = EncodeResponseFrame(frame);
    ResponseFrame decoded;
    std::string error;
    ASSERT_TRUE(DecodeResponsePayload(encoded.data() + kHeaderBytes,
                                      encoded.size() - kHeaderBytes, &decoded,
                                      &error))
        << error;
    EXPECT_EQ(ResponseChecksum(decoded), ResponseChecksum(frame));
    EXPECT_EQ(decoded.edges, frame.edges);
    EXPECT_EQ(decoded.stops, frame.stops);
    EXPECT_EQ(decoded.message, frame.message);
  }
}

// The replay contract hangs on this: timings and provenance must not
// move the checksum, plan content and status must.
TEST(NetFrame, ChecksumCoversOnlyDeterministicSection) {
  ResponseFrame response;
  response.status = ResponseStatus::kOk;
  response.found = true;
  response.edges = {1, 2, 3};
  response.objective = 2.5;
  const std::uint64_t base = ResponseChecksum(response);

  ResponseFrame timing = response;
  timing.request_id = 777;
  timing.server_seconds = 123.0;
  timing.queue_seconds = 55.0;
  timing.cache_hit = true;
  timing.batch_size = 9;
  EXPECT_EQ(ResponseChecksum(timing), base);

  ResponseFrame content = response;
  content.objective = 2.5000001;
  EXPECT_NE(ResponseChecksum(content), base);
  ResponseFrame status = response;
  status.status = ResponseStatus::kRejectedDeadline;
  EXPECT_NE(ResponseChecksum(status), base);
  ResponseFrame version = response;
  version.snapshot_version = 2;
  EXPECT_NE(ResponseChecksum(version), base);
}

// ------------------------------------------------ malformed corpus ----

TEST(NetFrame, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> frame = EncodeRequestFrame(MakeRequest());
  for (std::size_t size = 0; size < kHeaderBytes; ++size) {
    FrameHeader header;
    std::string error;
    EXPECT_FALSE(DecodeFrameHeader(frame.data(), size, &header, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
}

std::vector<std::uint8_t> ValidHeaderBytes() {
  std::vector<std::uint8_t> frame = EncodeRequestFrame(MakeRequest());
  frame.resize(kHeaderBytes);
  return frame;
}

TEST(NetFrame, BadMagicRejected) {
  std::vector<std::uint8_t> header = ValidHeaderBytes();
  header[0] ^= 0xff;
  FrameHeader decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeFrameHeader(header.data(), header.size(), &decoded, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(NetFrame, UnsupportedVersionRejected) {
  std::vector<std::uint8_t> header = ValidHeaderBytes();
  header[4] = 0x2a;  // version 42
  FrameHeader decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeFrameHeader(header.data(), header.size(), &decoded, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(NetFrame, UnknownFrameTypeRejected) {
  std::vector<std::uint8_t> header = ValidHeaderBytes();
  header[6] = 9;
  FrameHeader decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeFrameHeader(header.data(), header.size(), &decoded, &error));
  EXPECT_NE(error.find("type"), std::string::npos) << error;
}

TEST(NetFrame, OversizedDeclaredLengthRejected) {
  std::vector<std::uint8_t> header = ValidHeaderBytes();
  // payload_bytes field at offset 8: declare 2 MiB, above the 1 MiB bound.
  const std::uint32_t huge = 2u << 20;
  std::memcpy(header.data() + 8, &huge, sizeof(huge));
  FrameHeader decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeFrameHeader(header.data(), header.size(), &decoded, &error));
  EXPECT_NE(error.find("payload_bytes"), std::string::npos) << error;
}

// Strict whole-payload consumption: every strict prefix of a valid
// payload must fail, and one trailing byte must fail too.
TEST(NetFrame, EveryRequestPayloadPrefixRejected) {
  const std::vector<std::uint8_t> frame = EncodeRequestFrame(MakeRequest());
  const std::uint8_t* payload = frame.data() + kHeaderBytes;
  const std::size_t payload_size = frame.size() - kHeaderBytes;
  for (std::size_t size = 0; size < payload_size; ++size) {
    RequestFrame decoded;
    std::string error;
    EXPECT_FALSE(DecodeRequestPayload(payload, size, &decoded, &error))
        << "prefix of " << size << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
  std::vector<std::uint8_t> extended(payload, payload + payload_size);
  extended.push_back(0);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(extended.data(), extended.size(),
                                    &decoded, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

/// Encodes a request the encoder happily writes but the decoder must
/// reject, and asserts the diagnostic names the right field.
void ExpectRequestRejected(const RequestFrame& frame, const char* field) {
  const std::vector<std::uint8_t> encoded = EncodeRequestFrame(frame);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(encoded.data() + kHeaderBytes,
                                    encoded.size() - kHeaderBytes, &decoded,
                                    &error))
      << "field " << field << " accepted";
  EXPECT_NE(error.find(field), std::string::npos) << error;
}

TEST(NetFrame, InvalidFieldValuesRejected) {
  {
    RequestFrame frame = MakeRequest();
    frame.request.dataset.clear();
    ExpectRequestRejected(frame, "dataset");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.dataset.assign(kMaxDatasetNameBytes + 1, 'd');
    ExpectRequestRejected(frame, "dataset");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.priority = static_cast<service::Priority>(9);
    ExpectRequestRejected(frame, "priority");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.planner = static_cast<core::Planner>(7);
    ExpectRequestRejected(frame, "planner");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.k = 0;
    ExpectRequestRejected(frame, "k");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.w = 1.5;
    ExpectRequestRejected(frame, "w");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.w = std::nan("");
    ExpectRequestRejected(frame, "w");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.tau = -1.0;
    ExpectRequestRejected(frame, "tau");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.tau =
        std::numeric_limits<double>::infinity();
    ExpectRequestRejected(frame, "tau");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.max_iterations = 0;
    ExpectRequestRejected(frame, "max_iterations");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.online_estimator.probes = 0;
    ExpectRequestRejected(frame, "online_estimator");
  }
  {
    RequestFrame frame = MakeRequest();
    frame.request.options.precompute_estimator.lanczos_steps = 100001;
    ExpectRequestRejected(frame, "precompute_estimator");
  }
}

TEST(NetFrame, UnknownFlagBitsRejected) {
  // The flags byte closes the payload. Bits 1-4 are the four planner
  // toggles; bit 0 (retired) and bits 5-7 must fail with a named field
  // instead of being dropped silently.
  const std::vector<std::uint8_t> encoded = EncodeRequestFrame(MakeRequest());
  for (int bit : {0, 5, 6, 7}) {
    std::vector<std::uint8_t> payload(encoded.begin() + kHeaderBytes,
                                      encoded.end());
    payload.back() |= static_cast<std::uint8_t>(1u << bit);
    RequestFrame decoded;
    std::string error;
    EXPECT_FALSE(DecodeRequestPayload(payload.data(), payload.size(),
                                      &decoded, &error))
        << "flag bit " << bit << " accepted";
    EXPECT_NE(error.find("flags"), std::string::npos) << error;
  }
  // Every combination of the four known bits decodes.
  for (std::uint8_t flags = 0; flags < 32; flags += 2) {
    std::vector<std::uint8_t> payload(encoded.begin() + kHeaderBytes,
                                      encoded.end());
    payload.back() = flags;
    RequestFrame decoded;
    std::string error;
    EXPECT_TRUE(DecodeRequestPayload(payload.data(), payload.size(), &decoded,
                                     &error))
        << static_cast<int>(flags) << ": " << error;
    const core::CtBusOptions& options = decoded.request.options;
    EXPECT_EQ(options.best_neighbor_only, (flags & 2) != 0);
    EXPECT_EQ(options.use_domination_table, (flags & 4) != 0);
    EXPECT_EQ(options.seed_all_edges, (flags & 8) != 0);
    EXPECT_EQ(options.new_edges_only, (flags & 16) != 0);
  }
}

TEST(NetFrame, HostileRouteListLengthRejected) {
  ResponseFrame response;
  response.edges.assign(kMaxRouteElements + 1, 1);
  const std::vector<std::uint8_t> encoded = EncodeResponseFrame(response);
  ResponseFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeResponsePayload(encoded.data() + kHeaderBytes,
                                     encoded.size() - kHeaderBytes, &decoded,
                                     &error));
  EXPECT_NE(error.find("edges"), std::string::npos) << error;
}

TEST(NetFrame, StatusNamesAreStable) {
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kOk), "ok");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kRejectedQuota),
               "rejected-quota");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kRejectedOverload),
               "rejected-overload");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kRejectedDeadline),
               "rejected-deadline");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kError), "error");
}

}  // namespace
}  // namespace ctbus::net
