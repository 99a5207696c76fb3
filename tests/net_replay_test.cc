// Replay determinism: a workload recorded on the committed grid
// fixtures replays at 1x and 8x with bit-identical checksums, statuses,
// and counts; the golden trace under tests/data/ is the committed
// regression gate (re-recording it must reproduce it exactly, and any
// checksum drift must fail the replay); and trace files themselves
// parse strictly with path:line diagnostics.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/loadgen.h"
#include "net/trace_file.h"

namespace ctbus::net {
namespace {

#ifndef CTBUS_TEST_DATA_DIR
#error "CTBUS_TEST_DATA_DIR must point at the committed fixtures"
#endif

/// The golden trace's exact generation parameters. Changing any of
/// these (or the workload generator, the wire format, the planner, or
/// the grid fixtures) requires re-recording tests/data/golden_grid.trace
/// — which is the point: the trace pins all of them at once.
WorkloadSpec GoldenSpec() {
  WorkloadSpec spec;
  spec.dataset = "grid";
  spec.requests = 12;
  spec.seed = 7;
  spec.spacing_seconds = 0.01;
  spec.sweep_fraction = 0.5;
  return spec;
}

std::string GoldenTracePath() {
  return std::string(CTBUS_TEST_DATA_DIR) + "/golden_grid.trace";
}

std::unique_ptr<LoopbackServer> StartGridServer() {
  LoopbackOptions options;
  options.fixture_dir = CTBUS_TEST_DATA_DIR;
  options.dataset_name = "grid";
  std::string error;
  auto loopback = StartLoopbackServer(options, &error);
  EXPECT_NE(loopback, nullptr) << error;
  return loopback;
}

TEST(NetReplay, TraceFileRoundTripsByteIdentically) {
  auto loopback = StartGridServer();
  ASSERT_NE(loopback, nullptr);
  TraceFile trace = MakeWorkload(GoldenSpec());
  std::string error;
  ASSERT_TRUE(RecordTrace(loopback->port(), &trace, &error)) << error;

  const std::string path = ::testing::TempDir() + "net_replay_roundtrip.trace";
  ASSERT_TRUE(WriteTraceFile(path, trace, &error)) << error;
  TraceFile reread;
  ASSERT_TRUE(ReadTraceFile(path, &reread, &error)) << error;
  ASSERT_EQ(reread.records.size(), trace.records.size());
  ASSERT_EQ(reread.dataset, trace.dataset);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const TraceRecord& a = trace.records[i];
    const TraceRecord& b = reread.records[i];
    EXPECT_EQ(a.offset_seconds, b.offset_seconds);
    EXPECT_EQ(a.deadline_ms, b.deadline_ms);
    EXPECT_EQ(a.request.priority, b.request.priority);
    EXPECT_EQ(a.request.planner, b.request.planner);
    EXPECT_EQ(a.request.snapshot_version, b.request.snapshot_version);
    EXPECT_EQ(a.request.options.k, b.request.options.k);
    EXPECT_EQ(a.request.options.w, b.request.options.w);
    EXPECT_EQ(a.request.options.tau, b.request.options.tau);
    EXPECT_EQ(a.request.options.online_estimator.seed,
              b.request.options.online_estimator.seed);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.response_checksum, b.response_checksum);
  }
  // Serialization is canonical: writing the reread trace is
  // byte-identical to the first write.
  const std::string second_path = path + ".2";
  ASSERT_TRUE(WriteTraceFile(second_path, reread, &error)) << error;
  std::ifstream first(path), second(second_path);
  std::string first_content((std::istreambuf_iterator<char>(first)),
                            std::istreambuf_iterator<char>());
  std::string second_content((std::istreambuf_iterator<char>(second)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(first_content, second_content);
  std::remove(path.c_str());
  std::remove(second_path.c_str());
}

TEST(NetReplay, OneXAndEightXReplaysAreBitIdentical) {
  auto loopback = StartGridServer();
  ASSERT_NE(loopback, nullptr);
  TraceFile trace = MakeWorkload(GoldenSpec());
  std::string error;
  ASSERT_TRUE(RecordTrace(loopback->port(), &trace, &error)) << error;

  ReplayOptions slow;
  slow.speedup = 1.0;
  slow.connections = 1;
  const ReplayReport at_1x = ReplayTrace(loopback->port(), trace, slow);
  EXPECT_TRUE(at_1x.passed) << (at_1x.violations.empty()
                                    ? "no violation recorded"
                                    : at_1x.violations.front());
  EXPECT_EQ(at_1x.requests, trace.records.size());
  EXPECT_EQ(at_1x.responses, trace.records.size());
  EXPECT_EQ(at_1x.checksum_mismatches, 0u);
  EXPECT_EQ(at_1x.status_mismatches, 0u);

  ReplayOptions fast;
  fast.speedup = 8.0;
  fast.connections = 2;
  const ReplayReport at_8x = ReplayTrace(loopback->port(), trace, fast);
  EXPECT_TRUE(at_8x.passed) << (at_8x.violations.empty()
                                    ? "no violation recorded"
                                    : at_8x.violations.front());
  EXPECT_EQ(at_8x.responses, at_1x.responses);
  EXPECT_EQ(at_8x.ok_responses, at_1x.ok_responses);
  EXPECT_EQ(at_8x.checksum_mismatches, 0u);
  EXPECT_EQ(at_8x.status_mismatches, 0u);
  // Same responses in aggregate, regardless of speed or fan-out.
  EXPECT_EQ(at_8x.checksum_fold, at_1x.checksum_fold);
}

// The committed golden trace: replay must PASS against a fresh server
// over the committed fixtures, and re-recording the pinned workload must
// reproduce the committed outcomes exactly. Drift in either direction —
// planner, wire format, fixtures, or workload generator — fails here.
TEST(NetReplay, GoldenTraceReplaysAndRerecordsExactly) {
  TraceFile golden;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(GoldenTracePath(), &golden, &error)) << error;
  ASSERT_EQ(golden.dataset, "grid");
  ASSERT_EQ(golden.records.size(), 12u);

  auto loopback = StartGridServer();
  ASSERT_NE(loopback, nullptr);
  ReplayOptions options;
  options.speedup = 8.0;
  const ReplayReport report = ReplayTrace(loopback->port(), golden, options);
  EXPECT_TRUE(report.passed) << (report.violations.empty()
                                     ? "no violation recorded"
                                     : report.violations.front());
  EXPECT_EQ(report.responses, golden.records.size());
  EXPECT_EQ(report.checksum_mismatches, 0u);

  TraceFile rerecorded = MakeWorkload(GoldenSpec());
  ASSERT_TRUE(RecordTrace(loopback->port(), &rerecorded, &error)) << error;
  ASSERT_EQ(rerecorded.records.size(), golden.records.size());
  for (std::size_t i = 0; i < golden.records.size(); ++i) {
    EXPECT_EQ(rerecorded.records[i].status, golden.records[i].status)
        << "record " << i;
    EXPECT_EQ(rerecorded.records[i].response_checksum,
              golden.records[i].response_checksum)
        << "record " << i;
  }
}

TEST(NetReplay, ChecksumDriftFailsTheReplay) {
  TraceFile golden;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(GoldenTracePath(), &golden, &error)) << error;
  golden.records[0].response_checksum ^= 1;

  auto loopback = StartGridServer();
  ASSERT_NE(loopback, nullptr);
  ReplayOptions options;
  options.speedup = 8.0;
  const ReplayReport report = ReplayTrace(loopback->port(), golden, options);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.checksum_mismatches, 1u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().find("checksum"), std::string::npos);
}

TEST(NetReplay, BustedLatencyBudgetFailsTheReplay) {
  TraceFile golden;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(GoldenTracePath(), &golden, &error)) << error;

  auto loopback = StartGridServer();
  ASSERT_NE(loopback, nullptr);
  ReplayOptions options;
  options.speedup = 8.0;
  options.budgets.p50_seconds = 0.0;  // nothing is that fast
  options.budgets.p95_seconds = 0.0;
  options.budgets.p99_seconds = 0.0;
  const ReplayReport report = ReplayTrace(loopback->port(), golden, options);
  EXPECT_FALSE(report.passed);
  // Outcomes still matched — only the budgets failed.
  EXPECT_EQ(report.checksum_mismatches, 0u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().find("over budget"), std::string::npos);
}

// Frames and traces share one request contract: any request the wire
// decoder accepts must survive a trace round trip unchanged.
TEST(NetReplay, EveryWireAcceptedRequestRoundTripsThroughATrace) {
  RequestFrame sent;
  sent.deadline_ms = 0xfffffff0u;
  sent.request.dataset = "grid";
  sent.request.options.max_turns = 1000001;
  const std::vector<std::uint8_t> wire = EncodeRequestFrame(sent);
  TraceFile trace{"grid", {TraceRecord()}};
  RequestFrame decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestPayload(wire.data() + kHeaderBytes,
                                   wire.size() - kHeaderBytes, &decoded,
                                   &error))
      << error;
  trace.records[0].deadline_ms = decoded.deadline_ms;
  trace.records[0].request = decoded.request;
  const std::string path = ::testing::TempDir() + "net_replay_contract.trace";
  ASSERT_TRUE(WriteTraceFile(path, trace, &error)) << error;
  ASSERT_TRUE(ReadTraceFile(path, &trace, &error)) << error;
  std::remove(path.c_str());
  ASSERT_EQ(trace.records.size(), 1u);
  RequestFrame replayed;
  replayed.deadline_ms = trace.records[0].deadline_ms;
  replayed.request = trace.records[0].request;
  EXPECT_EQ(EncodeRequestFrame(replayed), wire);
}

/// A v2 record line carrying `frame`'s payload.
std::string RecordLine(const RequestFrame& frame) {
  const std::vector<std::uint8_t> wire = EncodeRequestFrame(frame);
  std::string line = "0.5 0 0123456789abcdef ";
  for (std::size_t i = kHeaderBytes; i < wire.size(); ++i) {
    const std::uint8_t byte = wire[i];
    static const char digits[] = "0123456789abcdef";
    line += digits[byte >> 4];
    line += digits[byte & 0xf];
  }
  return line + "\n";
}

TEST(NetReplay, MalformedTraceFilesRejectedWithDiagnostics) {
  const std::string path = ::testing::TempDir() + "net_replay_bad.trace";
  const std::string header = "ctbus-trace-v2 protocol=" +
                             std::to_string(kProtocolVersion) +
                             " dataset=grid records=1\n";
  RequestFrame valid;
  valid.request.dataset = "grid";
  const std::string good_line = RecordLine(valid);
  auto expect_rejected = [&path](const std::string& content, int line,
                                 const std::string& field) {
    std::ofstream out(path);
    out << content;
    out.close();
    TraceFile trace;
    std::string error;
    EXPECT_FALSE(ReadTraceFile(path, &trace, &error)) << content;
    EXPECT_NE(error.find(path + ":" + std::to_string(line) + ":"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("field " + field), std::string::npos)
        << "want field " << field << ": " << error;
  };

  // The well-formed baseline loads, so each case below fails for its edit.
  {
    std::ofstream out(path);
    out << header << good_line;
    out.close();
    TraceFile trace;
    std::string error;
    ASSERT_TRUE(ReadTraceFile(path, &trace, &error)) << error;
    ASSERT_EQ(trace.records.size(), 1u);
  }

  // Header: a v1 file, a wrong protocol, a missing dataset, a wrong count.
  expect_rejected(
      "ctbus-trace-v1 dataset=grid records=1\n"
      "0 0 0 1 1 4 0.3 500 3 100 100 12 6 0000000000000003 0 5 5 "
      "0000000000000007 0 6 0 0000000000000000\n",
      1, "format");
  expect_rejected("ctbus-trace-v2 protocol=1 dataset=grid records=1\n" +
                      good_line,
                  1, "protocol");
  expect_rejected("ctbus-trace-v2 protocol=" +
                      std::to_string(kProtocolVersion) + " records=1\n" +
                      good_line,
                  1, "dataset");
  expect_rejected("ctbus-trace-v2 protocol=" +
                      std::to_string(kProtocolVersion) +
                      " dataset=grid records=2\n" + good_line,
                  2, "records");

  // Record tokens around the payload.
  expect_rejected(header + "zero" + good_line.substr(3), 2, "offset_seconds");
  expect_rejected(header + good_line.substr(0, good_line.size() - 1) +
                      " extra\n",
                  2, "line");

  // The payload's hex: odd length, then a non-hex digit.
  expect_rejected(header + good_line.substr(0, good_line.size() - 2) + "\n",
                  2, "payload");
  std::string non_hex = good_line;
  non_hex[non_hex.size() - 2] = 'g';
  expect_rejected(header + non_hex, 2, "payload");

  // Payloads that decode to bytes but that the wire decoder refuses.
  RequestFrame bad_w = valid;
  bad_w.request.options.w = 2.5;
  expect_rejected(header + RecordLine(bad_w), 2, "w");
  RequestFrame other_dataset = valid;
  other_dataset.request.dataset = "midtown";
  expect_rejected(header + RecordLine(other_dataset), 2, "dataset");
  RequestFrame bad_priority = valid;
  bad_priority.request.priority = static_cast<service::Priority>(7);
  expect_rejected(header + RecordLine(bad_priority), 2, "priority");
  RequestFrame bad_planner = valid;
  bad_planner.request.planner = static_cast<core::Planner>(9);
  expect_rejected(header + RecordLine(bad_planner), 2, "planner");
  std::string bad_flags = good_line;  // the payload ends with the flags byte
  bad_flags.replace(bad_flags.size() - 3, 2, "80");
  expect_rejected(header + bad_flags, 2, "flags");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctbus::net
