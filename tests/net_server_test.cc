// Serving-path end-to-end tests over a real loopback TCP connection:
// server-mediated results are bit-identical to direct
// PlanningService::Submit, admission control (quota / overload /
// deadline) produces the right wire statuses and reconciles with both
// the server's net.* counters and the service's ServiceStats, and the
// malformed-frame corpus drops only the offending connection — the
// server keeps serving.
#include <chrono>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/net_metrics.h"
#include "service/planning_service.h"

namespace ctbus::net {
namespace {

using service::PlanRequest;
using service::PlanningService;
using service::ServiceOptions;
using service::ServiceResult;

PlanRequest CheapRequest(const std::string& dataset) {
  PlanRequest request;
  request.dataset = dataset;
  request.options.k = 4;
  request.options.seed_count = 100;
  request.options.max_iterations = 100;
  request.options.online_estimator = {12, 6, 3};
  request.options.precompute_estimator = {5, 5, 7};
  request.planner = core::Planner::kEtaPre;
  return request;
}

RequestFrame WireRequest(std::uint64_t id, const PlanRequest& request,
                         std::uint32_t deadline_ms = 0) {
  RequestFrame frame;
  frame.request_id = id;
  frame.deadline_ms = deadline_ms;
  frame.request = request;
  return frame;
}

TEST(NetServer, ServerMediatedResultsBitIdenticalToDirectSubmit) {
  std::string error;
  LoopbackOptions options;
  options.preset = "midtown";
  auto loopback = StartLoopbackServer(options, &error);
  ASSERT_NE(loopback, nullptr) << error;

  Client client;
  ASSERT_TRUE(client.Connect(loopback->port(), &error)) << error;

  for (int planner = 0; planner < 3; ++planner) {
    PlanRequest request = CheapRequest(loopback->dataset);
    request.planner = static_cast<core::Planner>(planner);
    request.options.k = 4 + planner;

    ResponseFrame wire;
    ASSERT_TRUE(client.Call(WireRequest(planner + 1, request), &wire, &error))
        << error;
    ASSERT_EQ(wire.status, ResponseStatus::kOk);
    EXPECT_EQ(wire.request_id, static_cast<std::uint64_t>(planner + 1));

    const ServiceResult direct = loopback->service->Submit(request).get();
    // Exact equality across the board: the front door must not perturb
    // planning results in any bit.
    EXPECT_EQ(wire.found, direct.plan.found);
    EXPECT_EQ(wire.snapshot_version, direct.stats.snapshot_version);
    EXPECT_EQ(wire.edges, direct.plan.path.edges());
    EXPECT_EQ(wire.stops, direct.plan.path.stops());
    EXPECT_EQ(wire.objective, direct.plan.objective);
    EXPECT_EQ(wire.demand, direct.plan.demand);
    EXPECT_EQ(wire.connectivity_increment,
              direct.plan.connectivity_increment);
    EXPECT_EQ(wire.iterations, direct.plan.iterations);
    // ... which is exactly what the trace-file checksum certifies.
    EXPECT_EQ(ResponseChecksum(wire),
              ResponseChecksum(MakeOkResponse(wire.request_id, direct)));
  }
  client.Close();
  EXPECT_EQ(loopback->server->CounterValue(obs::kNetRequestsOk), 3u);
  EXPECT_EQ(loopback->server->CounterValue(obs::kNetFramesMalformed), 0u);
}

TEST(NetServer, OkResponseCarriesServerSeconds) {
  // server_seconds spans receive -> response encode, so it is positive and
  // covers the service queue wait reported next to it. It sits outside
  // ResponseChecksum, so setting it moves no checksum.
  std::string error;
  LoopbackOptions options;
  options.preset = "midtown";
  auto loopback = StartLoopbackServer(options, &error);
  ASSERT_NE(loopback, nullptr) << error;
  Client client;
  ASSERT_TRUE(client.Connect(loopback->port(), &error)) << error;
  const PlanRequest request = CheapRequest(loopback->dataset);
  ResponseFrame wire;
  ASSERT_TRUE(client.Call(WireRequest(1, request), &wire, &error)) << error;
  ASSERT_EQ(wire.status, ResponseStatus::kOk);
  EXPECT_GT(wire.server_seconds, 0.0);
  EXPECT_GE(wire.server_seconds, wire.queue_seconds);
  ResponseFrame untimed = wire;
  untimed.server_seconds = 0.0;
  EXPECT_EQ(ResponseChecksum(untimed), ResponseChecksum(wire));
  client.Close();
}

TEST(NetServer, QuotaRejectIsImmediateAndCounted) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  PlanningService service(service_options);
  service.RegisterPreset("midtown", 1.0);

  ServerOptions server_options;
  server_options.max_inflight_per_client = 1;
  Server server(&service, server_options);
  server.Start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;

  // Pipelined: the first parks behind the paused service, the second
  // busts the in-flight quota at admission.
  const PlanRequest request = CheapRequest("midtown");
  ASSERT_TRUE(client.Send(WireRequest(1, request), &error)) << error;
  ASSERT_TRUE(client.Send(WireRequest(2, request), &error)) << error;
  // Quota verdicts are FIFO behind the in-flight request, so give the
  // reader time to admit both before releasing the workers: the reject
  // must have been decided while request 1 was still pending.
  while (server.CounterValue(obs::kNetRejectedQuota) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Start();

  ResponseFrame first;
  ASSERT_TRUE(client.Receive(&first, &error)) << error;
  EXPECT_EQ(first.request_id, 1u);
  EXPECT_EQ(first.status, ResponseStatus::kOk);
  ResponseFrame second;
  ASSERT_TRUE(client.Receive(&second, &error)) << error;
  EXPECT_EQ(second.request_id, 2u);
  EXPECT_EQ(second.status, ResponseStatus::kRejectedQuota);
  EXPECT_NE(second.message.find("quota"), std::string::npos);

  EXPECT_EQ(server.CounterValue(obs::kNetRejectedQuota), 1u);
  EXPECT_EQ(server.CounterValue(obs::kNetRequestsOk), 1u);
  // Quota rejects never reach the service.
  EXPECT_EQ(service.service_stats().rejected, 0u);
  EXPECT_EQ(service.service_stats().submitted, 1u);
  client.Close();
  server.Stop();
}

TEST(NetServer, OverloadRejectReconcilesWithServiceStats) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.queue_capacity = 1;
  service_options.overflow_policy = service::OverflowPolicy::kReject;
  service_options.start_paused = true;
  PlanningService service(service_options);
  service.RegisterPreset("midtown", 1.0);

  Server server(&service, ServerOptions{});
  server.Start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;

  const PlanRequest request = CheapRequest("midtown");
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(client.Send(WireRequest(id, request), &error)) << error;
  }
  // Requests 2 and 3 must be shed while the queue is full (request 1
  // occupies the only slot of the paused shard).
  while (server.CounterValue(obs::kNetRejectedOverload) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Start();

  ResponseFrame first;
  ASSERT_TRUE(client.Receive(&first, &error)) << error;
  EXPECT_EQ(first.status, ResponseStatus::kOk);
  for (std::uint64_t id = 2; id <= 3; ++id) {
    ResponseFrame shed;
    ASSERT_TRUE(client.Receive(&shed, &error)) << error;
    EXPECT_EQ(shed.request_id, id);
    EXPECT_EQ(shed.status, ResponseStatus::kRejectedOverload);
    EXPECT_FALSE(shed.message.empty());
  }

  // Front-door counter == service-side reject count: the shard queue is
  // the one admission queue, so the two views must agree exactly.
  EXPECT_EQ(server.CounterValue(obs::kNetRejectedOverload), 2u);
  EXPECT_EQ(service.service_stats().rejected, 2u);
  EXPECT_EQ(service.service_stats().completed, 1u);
  client.Close();
  server.Stop();
}

TEST(NetServer, DeadlineShedDiscardsLateResult) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  PlanningService service(service_options);
  service.RegisterPreset("midtown", 1.0);

  Server server(&service, ServerOptions{});
  server.Start();

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(
      client.Send(WireRequest(5, CheapRequest("midtown"), /*deadline_ms=*/1),
                  &error))
      << error;
  // Hold the service paused well past the 1 ms deadline, then let the
  // work finish late.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Start();

  ResponseFrame response;
  ASSERT_TRUE(client.Receive(&response, &error)) << error;
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_EQ(response.status, ResponseStatus::kRejectedDeadline);
  EXPECT_FALSE(response.found);
  EXPECT_TRUE(response.edges.empty());
  EXPECT_NE(response.message.find("deadline"), std::string::npos);

  EXPECT_EQ(server.CounterValue(obs::kNetRejectedDeadline), 1u);
  // The service did complete the work — the front door shed the late
  // delivery, and the two stats views say exactly that.
  EXPECT_EQ(service.service_stats().completed, 1u);
  EXPECT_EQ(server.CounterValue(obs::kNetRequestsOk), 0u);
  client.Close();
  server.Stop();
}

TEST(NetServer, UnknownDatasetIsErrorNotDisconnect) {
  std::string error;
  LoopbackOptions options;
  options.preset = "midtown";
  auto loopback = StartLoopbackServer(options, &error);
  ASSERT_NE(loopback, nullptr) << error;

  Client client;
  ASSERT_TRUE(client.Connect(loopback->port(), &error)) << error;
  ResponseFrame response;
  ASSERT_TRUE(client.Call(WireRequest(1, CheapRequest("atlantis")), &response,
                          &error))
      << error;
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_FALSE(response.message.empty());
  // Application errors keep the connection: the next request succeeds.
  ASSERT_TRUE(client.Call(WireRequest(2, CheapRequest(loopback->dataset)),
                          &response, &error))
      << error;
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(loopback->server->CounterValue(obs::kNetErrors), 1u);
  EXPECT_EQ(loopback->server->CounterValue(obs::kNetFramesMalformed), 0u);
}

/// Sends raw bytes and expects the server to drop (only) this
/// connection: the next read reports EOF rather than a response.
void ExpectConnectionDropped(std::uint16_t port,
                             const std::vector<std::uint8_t>& bytes) {
  std::string error;
  Socket socket = ConnectLoopback(port, &error);
  ASSERT_TRUE(socket.valid()) << error;
  ASSERT_TRUE(socket.SendAll(bytes.data(), bytes.size(), &error)) << error;
  // Half-close after the hostile bytes: for the truncated cases the
  // server is mid-RecvAll and must see the disconnect (EOF), not wait
  // forever for the rest of the frame.
  socket.ShutdownWrite();
  std::uint8_t byte = 0;
  EXPECT_FALSE(socket.RecvAll(&byte, 1, &error));
}

TEST(NetServer, MalformedFrameCorpusDropsConnectionServerStaysUp) {
  std::string error;
  LoopbackOptions options;
  options.preset = "midtown";
  auto loopback = StartLoopbackServer(options, &error);
  ASSERT_NE(loopback, nullptr) << error;
  const std::uint16_t port = loopback->port();

  const std::vector<std::uint8_t> valid =
      EncodeRequestFrame(WireRequest(1, CheapRequest(loopback->dataset)));

  // 1. Bad magic.
  {
    std::vector<std::uint8_t> frame = valid;
    frame[0] ^= 0xff;
    ExpectConnectionDropped(port, frame);
  }
  // 2. Unsupported protocol version.
  {
    std::vector<std::uint8_t> frame = valid;
    frame[4] = 0x7f;
    ExpectConnectionDropped(port, frame);
  }
  // 3. Oversized declared payload length (2 MiB > 1 MiB bound).
  {
    std::vector<std::uint8_t> frame = valid;
    const std::uint32_t huge = 2u << 20;
    std::memcpy(frame.data() + 8, &huge, sizeof(huge));
    ExpectConnectionDropped(port, frame);
  }
  // 4. Payload checksum mismatch (payload corrupted in flight).
  {
    std::vector<std::uint8_t> frame = valid;
    frame.back() ^= 0xff;
    ExpectConnectionDropped(port, frame);
  }
  // 5. Truncated header: 8 of 16 bytes, then disconnect.
  {
    std::vector<std::uint8_t> frame(valid.begin(), valid.begin() + 8);
    ExpectConnectionDropped(port, frame);
  }
  // 6. Mid-frame disconnect: valid header, half the declared payload.
  {
    std::vector<std::uint8_t> frame(
        valid.begin(), valid.begin() + kHeaderBytes + 4);
    ExpectConnectionDropped(port, frame);
  }
  // 7. Valid frame, hostile field (w = 1.5): decoded and rejected.
  {
    RequestFrame hostile = WireRequest(1, CheapRequest(loopback->dataset));
    hostile.request.options.w = 1.5;
    ExpectConnectionDropped(port, EncodeRequestFrame(hostile));
  }

  EXPECT_EQ(loopback->server->CounterValue(obs::kNetFramesMalformed), 7u);

  // The server is still up: a fresh, well-formed connection serves fine.
  Client client;
  ASSERT_TRUE(client.Connect(port, &error)) << error;
  ResponseFrame response;
  ASSERT_TRUE(client.Call(WireRequest(8, CheapRequest(loopback->dataset)),
                          &response, &error))
      << error;
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(loopback->server->CounterValue(obs::kNetRequestsOk), 1u);
}

TEST(NetServer, RequestLogAndTraceSpansEmitted) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.enable_tracing = true;
  PlanningService service(service_options);
  service.RegisterPreset("midtown", 1.0);

  std::ostringstream log;
  ServerOptions server_options;
  server_options.log = &log;
  Server server(&service, server_options);
  server.Start();

  Client client;
  std::string error;
  ResponseFrame response;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.Call(WireRequest(3, CheapRequest("midtown")), &response,
                          &error))
      << error;
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  client.Close();
  server.Stop();

  // One structured JSON line naming the request and its status.
  const std::string line = log.str();
  EXPECT_NE(line.find("\"request\": 3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"latency_s\""), std::string::npos) << line;

  // A net-request span joined onto the service-side trace.
  bool saw_net_span = false;
  for (const obs::Span& span : service.trace_log().Snapshot()) {
    if (span.name == "net-request") {
      saw_net_span = true;
      EXPECT_NE(span.trace_id, 0u);
      EXPECT_EQ(span.detail, "ok");
    }
  }
  EXPECT_TRUE(saw_net_span);
}

}  // namespace
}  // namespace ctbus::net
