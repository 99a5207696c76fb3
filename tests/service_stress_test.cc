// Deterministic multi-threaded stress of the sharded serving layer:
// several submitter threads flood two dataset shards with mixed-priority,
// mixed-planner requests while the main thread interleaves commits that
// advance one of the cities. Afterwards every single result is replayed
// serially — a fresh PlanningContext over the exact snapshot version the
// service resolved — and must match bit for bit.
//
// The schedule (which worker runs what, when commits land relative to
// version-0 resolutions) is intentionally nondeterministic; the *results*
// must not be. Each result records the version it actually planned
// against, which makes the serial replay exact regardless of interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/planning_service.h"

namespace ctbus::service {
namespace {

core::CtBusOptions StressOptions() {
  core::CtBusOptions options;
  options.k = 5;
  options.seed_count = 100;
  options.max_iterations = 100;
  options.online_estimator = {/*probes=*/12, /*lanczos_steps=*/6, /*seed=*/3};
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/7};
  return options;
}

void ExpectBitIdentical(const core::PlanResult& actual,
                        const core::PlanResult& expected) {
  ASSERT_EQ(actual.found, expected.found);
  if (!expected.found) return;
  EXPECT_EQ(actual.path.edges(), expected.path.edges());
  EXPECT_EQ(actual.path.stops(), expected.path.stops());
  // Exact double equality on purpose: concurrency, sharding, and warm
  // starts must not perturb a single bit of the numbers.
  EXPECT_EQ(actual.objective, expected.objective);
  EXPECT_EQ(actual.demand, expected.demand);
  EXPECT_EQ(actual.connectivity_increment, expected.connectivity_increment);
  EXPECT_EQ(actual.iterations, expected.iterations);
}

/// Serial ground truth for one executed request: plan from scratch (no
/// cache, no warm start) against the snapshot the service
/// actually resolved.
core::PlanResult SerialReplay(const PlanningService& service,
                              const ServiceResult& result) {
  const SnapshotPtr snapshot = service.Snapshot(
      result.request.dataset, result.stats.snapshot_version);
  EXPECT_NE(snapshot, nullptr);
  core::PlanningContext context = core::PlanningContext::Build(
      *snapshot->road, *snapshot->transit, result.request.options);
  switch (result.request.planner) {
    case core::Planner::kEta:
      return core::RunEta(&context, core::SearchMode::kOnline);
    case core::Planner::kEtaPre:
      return core::RunEta(&context, core::SearchMode::kPrecomputed);
    case core::Planner::kVkTsp:
      return core::RunVkTsp(&context);
  }
  return {};
}

/// Warm starts stay on: a derived precompute equals a from-scratch one bit
/// for bit (docs/PRECOMPUTE.md), so the from-scratch serial replay is exact
/// even for requests that resolved to a derived precompute.
TEST(ConcurrentStressTest, SubmitsAndCommitsMatchSerialReplay) {
  constexpr int kSubmitters = 4;
  constexpr int kRequestsPerSubmitter = 8;
  constexpr int kCommits = 3;

  ServiceOptions service_options;
  service_options.num_threads = 2;   // per shard: 2 datasets -> 4 workers
  service_options.cache_capacity = 8;
  PlanningService service(service_options);
  const gen::Dataset midtown = gen::MakeMidtown();
  service.RegisterDataset("alpha", midtown.road, midtown.transit);
  service.RegisterDataset("beta", midtown.road, midtown.transit);

  // Submitters: each interleaves datasets, priorities, and planners, and
  // half the requests chase "latest" while commits advance alpha.
  std::vector<std::vector<std::future<ServiceResult>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&service, &futures, s] {
      for (int i = 0; i < kRequestsPerSubmitter; ++i) {
        PlanRequest request;
        request.dataset = (s + i) % 2 == 0 ? "alpha" : "beta";
        request.options = StressOptions();
        request.options.k = 4 + (i % 3);
        request.options.w = 0.3 + 0.2 * (s % 3);
        request.planner = i % 3 == 0 ? core::Planner::kVkTsp
                                     : core::Planner::kEtaPre;
        request.priority =
            i % 2 == 0 ? Priority::kInteractive : Priority::kSweep;
        request.snapshot_version = i % 2 == 0 ? 0 : 1;
        futures[s].push_back(service.Submit(std::move(request)));
      }
    });
  }

  // Interleave commits on alpha from the main thread while submitters and
  // workers are in full flight. Planning a fresh interactive request and
  // committing it advances "latest" under the version-0 traffic.
  for (int c = 0; c < kCommits; ++c) {
    PlanRequest request;
    request.dataset = "alpha";
    request.options = StressOptions();
    const ServiceResult result = service.Plan(request);
    ASSERT_TRUE(result.plan.found);
    service.Commit(result);
  }
  for (std::thread& submitter : submitters) submitter.join();

  // Gather every result, then replay each serially and compare.
  int replayed = 0;
  for (auto& submitter_futures : futures) {
    for (auto& future : submitter_futures) {
      const ServiceResult result = future.get();
      ASSERT_GE(result.stats.snapshot_version, 1u);
      ExpectBitIdentical(result.plan, SerialReplay(service, result));
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kSubmitters * kRequestsPerSubmitter);

  const auto stats = service.service_stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kRequestsPerSubmitter +
                                       kCommits));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(service.LatestVersion("alpha"),
            static_cast<std::uint64_t>(1 + kCommits));
  EXPECT_EQ(service.LatestVersion("beta"), 1u);
  // Every version the commits published is resident for replay.
  for (std::uint64_t v = 1; v <= 1 + kCommits; ++v) {
    EXPECT_NE(service.Snapshot("alpha", v), nullptr);
  }
  // With commits advancing alpha, at least one miss was answered by
  // deriving from an ancestor — and still replayed exactly.
  EXPECT_GT(service.service_stats().precomputes_derived, 0u);
}

TEST(ServiceStressTest, PausedBacklogDrainsDeterministically) {
  // Everything enqueued before Start() on a 1-worker shard: the drain
  // order is fully deterministic (interactive FIFO, then sweeps FIFO), so
  // the execute sequence must put all interactive first and then every
  // sweep in submission order — and results must still replay
  // bit-identically.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  service_options.queue_capacity = 64;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> sweep_futures;
  std::vector<std::future<ServiceResult>> interactive_futures;
  for (int i = 0; i < 6; ++i) {
    PlanRequest request;
    request.dataset = "midtown";
    request.options = StressOptions();
    request.options.w = 0.25 + 0.1 * i;
    request.priority = Priority::kSweep;
    sweep_futures.push_back(service.Submit(std::move(request)));
  }
  for (int i = 0; i < 3; ++i) {
    PlanRequest request;
    request.dataset = "midtown";
    request.options = StressOptions();
    request.priority = Priority::kInteractive;
    interactive_futures.push_back(service.Submit(std::move(request)));
  }
  service.Start();

  std::uint64_t max_interactive_sequence = 0;
  for (auto& future : interactive_futures) {
    const ServiceResult result = future.get();
    max_interactive_sequence =
        std::max(max_interactive_sequence, result.stats.execute_sequence);
    ExpectBitIdentical(result.plan, SerialReplay(service, result));
  }
  std::uint64_t previous_sweep_sequence = max_interactive_sequence;
  for (auto& future : sweep_futures) {
    const ServiceResult result = future.get();
    // Sweeps enqueued first still executed after every interactive
    // request, and one at a time in submission order.
    EXPECT_GT(result.stats.execute_sequence, previous_sweep_sequence);
    previous_sweep_sequence = result.stats.execute_sequence;
    ExpectBitIdentical(result.plan, SerialReplay(service, result));
  }
}

TEST(ServiceStressTest, BlockingBackpressureNeverDropsRequests) {
  // A tiny queue with the blocking policy: submitters stall instead of
  // erroring, and every request completes exactly once.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.queue_capacity = 2;
  service_options.overflow_policy = OverflowPolicy::kBlock;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  constexpr int kThreads = 3;
  constexpr int kPerThread = 5;
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &completed] {
      for (int i = 0; i < kPerThread; ++i) {
        PlanRequest request;
        request.dataset = "midtown";
        request.options = StressOptions();
        request.priority =
            i % 2 == 0 ? Priority::kInteractive : Priority::kSweep;
        const ServiceResult result = service.Plan(std::move(request));
        EXPECT_TRUE(result.plan.found);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
}

}  // namespace
}  // namespace ctbus::service
