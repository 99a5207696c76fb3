// Soak test of the front door: several client threads fire pipelined
// bursts over real TCP connections at one server with a tight in-flight
// quota while the main thread interleaves Commit batches that
// advance the dataset. Extends the service_stress_test discipline one
// layer out: every kOk response is replayed serially (fresh
// PlanningContext over the snapshot version the service resolved) and
// must match the wire payload bit for bit, and every request is
// accounted for exactly once across the net.* counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/net_metrics.h"
#include "service/planning_service.h"

namespace ctbus::net {
namespace {

using service::PlanRequest;
using service::PlanningService;
using service::Priority;
using service::ServiceOptions;

constexpr int kClients = 4;
constexpr int kBursts = 3;
constexpr int kBurstSize = 6;

core::CtBusOptions SoakOptions(int client, int index) {
  core::CtBusOptions options;
  options.k = 4 + index % 3;
  options.w = 0.3 + 0.2 * (client % 3);
  options.seed_count = 100;
  options.max_iterations = 100;
  options.online_estimator = {/*probes=*/12, /*lanczos_steps=*/6, /*seed=*/3};
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/7};
  return options;
}

PlanRequest SoakRequest(int client, int index) {
  PlanRequest request;
  request.dataset = "alpha";
  request.options = SoakOptions(client, index);
  request.planner =
      index % 3 == 0 ? core::Planner::kVkTsp : core::Planner::kEtaPre;
  request.priority = index % 2 == 0 ? Priority::kInteractive : Priority::kSweep;
  // Half the traffic chases "latest" while commits advance it; the
  // response pins the version that was actually resolved.
  request.snapshot_version = index % 2 == 0 ? 0 : 1;
  return request;
}

/// From-scratch serial ground truth for a wire response (the
/// service_stress_test SerialReplay, driven from the wire request).
core::PlanResult SerialReplay(const PlanningService& service,
                              const PlanRequest& request,
                              std::uint64_t resolved_version) {
  const service::SnapshotPtr snapshot =
      service.Snapshot(request.dataset, resolved_version);
  EXPECT_NE(snapshot, nullptr);
  core::PlanningContext context = core::PlanningContext::Build(
      *snapshot->road, *snapshot->transit, request.options);
  return core::RunPlanner(&context, request.planner);
}

TEST(NetSoak, ConcurrentClientsWithCommitsReplayBitIdentically) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.cache_capacity = 8;
  // Warm starts derive bit-identically (docs/PRECOMPUTE.md), so the
  // from-scratch serial replay stays exact under commits.
  PlanningService service(service_options);
  const gen::Dataset midtown = gen::MakeMidtown();
  service.RegisterDataset("alpha", midtown.road, midtown.transit);

  ServerOptions server_options;
  server_options.max_inflight_per_client = 2;  // tight: bursts overrun it
  Server server(&service, server_options);
  server.Start();

  struct Outcome {
    PlanRequest request;
    ResponseFrame response;
  };
  std::mutex outcomes_mu;
  std::vector<Outcome> outcomes;
  outcomes.reserve(kClients * kBursts * kBurstSize);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server, &outcomes, &outcomes_mu] {
      Client client;
      std::string error;
      ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
      for (int burst = 0; burst < kBursts; ++burst) {
        std::vector<PlanRequest> sent;
        sent.reserve(kBurstSize);
        // Pipelined burst: all requests on the wire before the first
        // response is read, so the in-flight quota is genuinely exercised.
        for (int i = 0; i < kBurstSize; ++i) {
          const int index = burst * kBurstSize + i;
          RequestFrame frame;
          frame.request_id =
              static_cast<std::uint64_t>(c) * 1000 + index + 1;
          frame.request = SoakRequest(c, index);
          ASSERT_TRUE(client.Send(frame, &error)) << error;
          sent.push_back(frame.request);
        }
        for (int i = 0; i < kBurstSize; ++i) {
          ResponseFrame response;
          ASSERT_TRUE(client.Receive(&response, &error)) << error;
          // FIFO responses: request ids must come back in send order.
          EXPECT_EQ(response.request_id,
                    static_cast<std::uint64_t>(c) * 1000 +
                        burst * kBurstSize + i + 1);
          std::lock_guard<std::mutex> lock(outcomes_mu);
          outcomes.push_back(
              {sent[static_cast<std::size_t>(i)], response});
        }
      }
      client.Close();
    });
  }

  // Interleaved commits from the main thread while the clients hammer
  // the front door: plan fresh, commit, repeat.
  for (int commit = 0; commit < 3; ++commit) {
    PlanRequest request = SoakRequest(0, 1);
    request.snapshot_version = 0;
    const service::ServiceResult result = service.Plan(request);
    ASSERT_TRUE(result.plan.found);
    service.Commit(result);
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kClients) * kBursts * kBurstSize;
  ASSERT_EQ(outcomes.size(), total);

  std::uint64_t ok = 0;
  std::uint64_t quota_rejected = 0;
  for (const Outcome& outcome : outcomes) {
    if (outcome.response.status == ResponseStatus::kRejectedQuota) {
      ++quota_rejected;
      EXPECT_TRUE(outcome.response.edges.empty());
      continue;
    }
    ASSERT_EQ(outcome.response.status, ResponseStatus::kOk)
        << outcome.response.message;
    ++ok;
    ASSERT_GE(outcome.response.snapshot_version, 1u);
    const core::PlanResult expected = SerialReplay(
        service, outcome.request, outcome.response.snapshot_version);
    ASSERT_EQ(outcome.response.found, expected.found);
    if (!expected.found) continue;
    EXPECT_EQ(outcome.response.edges, expected.path.edges());
    EXPECT_EQ(outcome.response.stops, expected.path.stops());
    // Exact double equality: TCP framing, concurrency, quotas, and
    // commits must not perturb one bit of the planning numbers.
    EXPECT_EQ(outcome.response.objective, expected.objective);
    EXPECT_EQ(outcome.response.demand, expected.demand);
    EXPECT_EQ(outcome.response.connectivity_increment,
              expected.connectivity_increment);
    EXPECT_EQ(outcome.response.iterations, expected.iterations);
  }

  // Exactly-once accounting across the wire and the service.
  EXPECT_EQ(ok + quota_rejected, total);
  EXPECT_EQ(server.CounterValue(obs::kNetRequestsReceived), total);
  EXPECT_EQ(server.CounterValue(obs::kNetRequestsOk), ok);
  EXPECT_EQ(server.CounterValue(obs::kNetRejectedQuota), quota_rejected);
  EXPECT_EQ(server.CounterValue(obs::kNetFramesMalformed), 0u);
  EXPECT_EQ(server.CounterValue(obs::kNetConnectionsOpened),
            static_cast<std::uint64_t>(kClients));
  // Quota rejects never reached a shard: the service saw exactly the
  // admitted requests plus the 3 commit plans.
  EXPECT_EQ(service.service_stats().submitted, ok + 3);
  EXPECT_EQ(service.service_stats().completed, ok + 3);
  EXPECT_EQ(service.service_stats().rejected, 0u);
  EXPECT_EQ(service.LatestVersion("alpha"), 4u);
}

}  // namespace
}  // namespace ctbus::net
