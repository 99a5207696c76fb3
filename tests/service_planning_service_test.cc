#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/scenario_runner.h"

namespace ctbus::service {
namespace {

core::CtBusOptions FastOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

/// The ground truth a service result must match bit for bit: a fresh
/// serial context over the same networks and options.
core::PlanResult SerialPlan(const gen::Dataset& d,
                            const core::CtBusOptions& options,
                            core::Planner planner) {
  core::PlanningContext context =
      core::PlanningContext::Build(d.road, d.transit, options);
  switch (planner) {
    case core::Planner::kEta:
      return core::RunEta(&context, core::SearchMode::kOnline);
    case core::Planner::kEtaPre:
      return core::RunEta(&context, core::SearchMode::kPrecomputed);
    case core::Planner::kVkTsp:
      return core::RunVkTsp(&context);
  }
  return {};
}

void ExpectBitIdentical(const core::PlanResult& actual,
                        const core::PlanResult& expected) {
  ASSERT_EQ(actual.found, expected.found);
  if (!expected.found) return;
  EXPECT_EQ(actual.path.edges(), expected.path.edges());
  EXPECT_EQ(actual.path.stops(), expected.path.stops());
  // Exact double equality on purpose: the estimators are deterministic, so
  // concurrent execution must not perturb a single bit of the numbers.
  EXPECT_EQ(actual.objective, expected.objective);
  EXPECT_EQ(actual.demand, expected.demand);
  EXPECT_EQ(actual.connectivity_increment, expected.connectivity_increment);
  EXPECT_EQ(actual.iterations, expected.iterations);
}

PlanRequest MidtownRequest(core::Planner planner = core::Planner::kEtaPre) {
  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();
  request.planner = planner;
  return request;
}

TEST(PlanningServiceTest, ConcurrentResultsMatchSerialExecution) {
  const gen::Dataset d = gen::MakeMidtown();
  const std::vector<core::Planner> planners = {
      core::Planner::kEtaPre, core::Planner::kEta, core::Planner::kVkTsp};
  std::vector<core::PlanResult> expected;
  for (core::Planner planner : planners) {
    expected.push_back(SerialPlan(d, FastOptions(), planner));
  }

  ServiceOptions service_options;
  service_options.num_threads = 4;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // 4 threads x 12 requests, interleaving planners.
  constexpr int kRequests = 12;
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        service.Submit(MidtownRequest(planners[i % planners.size()])));
  }
  for (int i = 0; i < kRequests; ++i) {
    const ServiceResult result = futures[i].get();
    ExpectBitIdentical(result.plan, expected[i % planners.size()]);
    EXPECT_EQ(result.stats.snapshot_version, 1u);
    EXPECT_GE(result.stats.worker_id, 0);
    EXPECT_LT(result.stats.worker_id, 4);
  }
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
}

TEST(PlanningServiceTest, RepeatedTauHitsThePrecomputeCache) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  const ServiceResult cold = service.Plan(MidtownRequest());
  EXPECT_FALSE(cold.stats.precompute_cache_hit);

  // Same tau and precompute estimator => hit, regardless of k / w.
  PlanRequest warm_request = MidtownRequest();
  warm_request.options.k = 8;
  warm_request.options.w = 0.25;
  const ServiceResult warm = service.Plan(warm_request);
  EXPECT_TRUE(warm.stats.precompute_cache_hit);

  // Different tau => new universe, miss.
  PlanRequest other_tau = MidtownRequest();
  other_tau.options.tau = 650.0;
  const ServiceResult other = service.Plan(other_tau);
  EXPECT_FALSE(other.stats.precompute_cache_hit);

  const auto cache = service.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 2u);
}

TEST(PlanningServiceTest, SnapshotIsolationAcrossCommit) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  const PlanRequest request = MidtownRequest();
  const ServiceResult before = service.Plan(request);
  ASSERT_TRUE(before.plan.found);
  EXPECT_EQ(before.stats.snapshot_version, 1u);

  // Commit advances the city without disturbing version 1.
  const std::uint64_t v2 = service.Commit(before);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(service.LatestVersion("midtown"), 2u);

  // Pinned to the old snapshot: bit-identical to the pre-commit plan.
  PlanRequest pinned = request;
  pinned.snapshot_version = 1;
  const ServiceResult replay = service.Plan(pinned);
  ExpectBitIdentical(replay.plan, before.plan);

  // Against latest: the committed route's demand is zeroed and its stop
  // pairs are no longer plannable, so the same route cannot win again.
  const ServiceResult after = service.Plan(request);
  EXPECT_EQ(after.stats.snapshot_version, 2u);
  ASSERT_TRUE(after.plan.found);
  EXPECT_NE(after.plan.path.stops(), before.plan.path.stops());

  // The new snapshot carries the committed route.
  const SnapshotPtr v2_snapshot = service.Snapshot("midtown", 2);
  ASSERT_NE(v2_snapshot, nullptr);
  const SnapshotPtr v1_snapshot = service.Snapshot("midtown", 1);
  ASSERT_NE(v1_snapshot, nullptr);
  EXPECT_EQ(v2_snapshot->transit->num_active_routes(),
            v1_snapshot->transit->num_active_routes() + 1);
}

TEST(PlanningServiceTest, SequentialCommitsFromOneSnapshotStack) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // Two different plans computed against the same snapshot v1.
  const PlanRequest eta_request = MidtownRequest(core::Planner::kEtaPre);
  const PlanRequest tsp_request = MidtownRequest(core::Planner::kVkTsp);
  const ServiceResult eta = service.Plan(eta_request);
  const ServiceResult tsp = service.Plan(tsp_request);
  ASSERT_TRUE(eta.plan.found);
  ASSERT_TRUE(tsp.plan.found);
  ASSERT_NE(eta.plan.path.stops(), tsp.plan.path.stops());

  // Committing both must stack: the second lands on top of the first
  // instead of clobbering it from their shared base version.
  service.Commit(eta);
  service.Commit(tsp);
  EXPECT_EQ(service.LatestVersion("midtown"), 3u);
  const SnapshotPtr v1 = service.Snapshot("midtown", 1);
  const SnapshotPtr v3 = service.Snapshot("midtown", 3);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v3, nullptr);
  EXPECT_EQ(v3->transit->num_active_routes(),
            v1->transit->num_active_routes() + 2);
}

TEST(PlanningServiceTest, WorkerBaseMemoNeverServesStaleState) {
  // One worker, so every request runs through the same base memo. The
  // precompute seed alternates (memo misses on the precompute) and a commit
  // lands midway (misses on the snapshot, then an explicit-version request
  // back on v1). The v2 precompute is warm-started from v1, and must still
  // equal the from-scratch one the in-process reference builds.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  const auto request_for = [](std::uint64_t precompute_seed,
                              core::Planner planner,
                              std::uint64_t version) {
    PlanRequest request = MidtownRequest(planner);
    request.options.precompute_estimator.seed = precompute_seed;
    request.snapshot_version = version;  // 0 = latest
    return request;
  };
  const auto expect_matches_in_process = [&](const ServiceResult& result) {
    const SnapshotPtr snapshot =
        service.Snapshot("midtown", result.stats.snapshot_version);
    ASSERT_NE(snapshot, nullptr);
    const core::CtBusOptions& options = result.request.options;
    core::PlanningContext context = core::PlanningContext::BuildWithPrecompute(
        *snapshot->road, *snapshot->transit, options,
        core::PlanningContext::RunPrecompute(*snapshot->road,
                                             *snapshot->transit, options));
    core::PlanResult expected;
    switch (result.request.planner) {
      case core::Planner::kEta:
        expected = core::RunEta(&context, core::SearchMode::kOnline);
        break;
      case core::Planner::kEtaPre:
        expected = core::RunEta(&context, core::SearchMode::kPrecomputed);
        break;
      case core::Planner::kVkTsp:
        expected = core::RunVkTsp(&context);
        break;
    }
    ExpectBitIdentical(result.plan, expected);
  };

  std::vector<ServiceResult> v1_results;
  for (std::uint64_t seed : {1, 2, 1, 2}) {
    v1_results.push_back(
        service.Plan(request_for(seed, core::Planner::kEtaPre, 0)));
  }
  v1_results.push_back(service.Plan(request_for(2, core::Planner::kEta, 0)));
  for (const ServiceResult& result : v1_results) {
    EXPECT_EQ(result.stats.snapshot_version, 1u);
    expect_matches_in_process(result);
  }
  // Precompute seeds 1 and 2 estimate different tr_0 anchors, so their
  // connectivity numbers differ.
  EXPECT_NE(v1_results[0].plan.connectivity_increment,
            v1_results[1].plan.connectivity_increment);
  // The online estimator is not part of the base: ETA-Pre never reads it,
  // so another online seed serves the same bits.
  PlanRequest other_online = request_for(1, core::Planner::kEtaPre, 0);
  other_online.options.online_estimator.seed += 1;
  ExpectBitIdentical(service.Plan(other_online).plan, v1_results[0].plan);

  ASSERT_TRUE(v1_results[0].plan.found);
  EXPECT_EQ(service.Commit(v1_results[0]), 2u);

  std::vector<ServiceResult> after;
  after.push_back(service.Plan(request_for(2, core::Planner::kEtaPre, 0)));
  EXPECT_TRUE(after[0].stats.precompute_derived);
  after.push_back(service.Plan(request_for(2, core::Planner::kVkTsp, 0)));
  after.push_back(service.Plan(request_for(1, core::Planner::kEtaPre, 0)));
  after.push_back(service.Plan(request_for(1, core::Planner::kEtaPre, 1)));
  after.push_back(service.Plan(request_for(1, core::Planner::kEtaPre, 0)));
  const std::vector<std::uint64_t> versions = {2, 2, 2, 1, 2};
  for (std::size_t i = 0; i < after.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "post-commit request " << i);
    EXPECT_EQ(after[i].stats.snapshot_version, versions[i]);
    expect_matches_in_process(after[i]);
  }
  // A stale v1 base would replay the committed route; v2 plans past it.
  EXPECT_NE(after[2].plan.path.stops(), after[3].plan.path.stops());
  ExpectBitIdentical(after[3].plan, v1_results[2].plan);
}

TEST(PlanningServiceTest, UnknownDatasetAndVersionFail) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");

  PlanRequest bad_dataset = MidtownRequest();
  bad_dataset.dataset = "atlantis";
  EXPECT_THROW(service.Submit(std::move(bad_dataset)), std::invalid_argument);

  PlanRequest bad_version = MidtownRequest();
  bad_version.snapshot_version = 99;
  auto future = service.Submit(std::move(bad_version));
  EXPECT_THROW(future.get(), std::invalid_argument);
}

TEST(PlanningServiceTest, DuplicateRegistrationThrows) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");
  EXPECT_THROW(service.RegisterPreset("midtown"), std::invalid_argument);
  EXPECT_TRUE(service.HasDataset("midtown"));
  EXPECT_FALSE(service.HasDataset("nyc"));
}

TEST(PlanningServiceTest, SubmitAfterShutdownThrows) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");
  service.Shutdown();
  EXPECT_THROW(service.Submit(MidtownRequest()), std::runtime_error);
}

TEST(PlanningServiceTest, PausedSameKeySweepsShareOnePrecompute) {
  const gen::Dataset d = gen::MakeMidtown();
  const core::PlanResult expected =
      SerialPlan(d, FastOptions(), core::Planner::kEtaPre);

  ServiceOptions service_options;
  service_options.num_threads = 3;
  service_options.start_paused = true;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // Enqueue 6 same-key sweep requests while the workers are parked, then
  // release all three at once: concurrent misses on the one key must wait
  // for a single compute inside the cache, and every later request hits.
  constexpr int kRequests = 6;
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    PlanRequest request = MidtownRequest();
    request.priority = Priority::kSweep;
    futures.push_back(service.Submit(std::move(request)));
  }
  service.Start();
  for (auto& future : futures) {
    ExpectBitIdentical(future.get().plan, expected);
  }
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().hits, 5u);
  EXPECT_EQ(service.service_stats().precomputes_from_scratch, 1u);
}

TEST(PlanningServiceTest, RejectPolicyShedsLoadBeyondCapacity) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;  // nothing drains: queue must fill
  service_options.queue_capacity = 2;
  service_options.overflow_policy = OverflowPolicy::kReject;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> accepted;
  accepted.push_back(service.Submit(MidtownRequest()));
  accepted.push_back(service.Submit(MidtownRequest()));
  EXPECT_THROW(service.Submit(MidtownRequest()), std::runtime_error);
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);

  service.Start();  // accepted requests still complete normally
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().plan.found);
  }
}

TEST(PlanningServiceTest, PerDatasetShardsIsolateBacklogs) {
  // Two datasets, one worker each. Dataset "hot" is flooded to its queue
  // capacity while paused; a submit to "cold" must not block (distinct
  // shard, distinct queue) even though "hot" is saturated.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  service_options.queue_capacity = 4;
  service_options.overflow_policy = OverflowPolicy::kReject;
  PlanningService service(service_options);
  const gen::Dataset d = gen::MakeMidtown();
  service.RegisterDataset("hot", d.road, d.transit);
  service.RegisterDataset("cold", d.road, d.transit);
  EXPECT_EQ(service.num_workers(), 2);

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 4; ++i) {
    PlanRequest request = MidtownRequest();
    request.dataset = "hot";
    futures.push_back(service.Submit(std::move(request)));
  }
  PlanRequest hot_overflow = MidtownRequest();
  hot_overflow.dataset = "hot";
  EXPECT_THROW(service.Submit(std::move(hot_overflow)), std::runtime_error);

  // The cold shard accepts instantly despite the hot shard being full.
  PlanRequest cold_request = MidtownRequest();
  cold_request.dataset = "cold";
  futures.push_back(service.Submit(std::move(cold_request)));

  service.Start();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().plan.found);
  }
}

TEST(PlanningServiceTest, CommitOfUnknownVersionThrows) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");
  const ServiceResult eta = service.Plan(MidtownRequest());
  ASSERT_TRUE(eta.plan.found);

  ServiceResult bogus = eta;
  bogus.stats.snapshot_version = 99;
  bogus.request.snapshot_version = 99;
  EXPECT_THROW(service.Commit(bogus), std::invalid_argument);

  // Commit bypasses the worker queues, so it keeps applying after
  // Shutdown.
  service.Shutdown();
  EXPECT_EQ(service.Commit(eta), 2u);
}

TEST(PlanningServiceTest, ConcurrentCommitsStack) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // Four distinct plans, all computed against v1.
  std::vector<ServiceResult> plans;
  for (const int k : {4, 6}) {
    for (const core::Planner planner :
         {core::Planner::kEtaPre, core::Planner::kVkTsp}) {
      PlanRequest request = MidtownRequest(planner);
      request.options.k = k;
      plans.push_back(service.Plan(request));
      ASSERT_TRUE(plans.back().plan.found);
      ASSERT_EQ(plans.back().stats.snapshot_version, 1u);
    }
  }
  std::set<std::vector<int>> routes;
  for (const ServiceResult& result : plans) {
    routes.insert(result.plan.path.stops());
  }
  ASSERT_EQ(routes.size(), plans.size());

  // All four threads commit at once; each must stack on the version the
  // previous commit published, whatever order they land in.
  std::promise<void> go;
  const std::shared_future<void> start = go.get_future().share();
  std::vector<std::uint64_t> versions(plans.size(), 0);
  std::vector<std::thread> committers;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    committers.emplace_back([&, i] {
      start.wait();
      versions[i] = service.Commit(plans[i]);
    });
  }
  go.set_value();
  for (std::thread& committer : committers) committer.join();

  EXPECT_EQ(std::set<std::uint64_t>(versions.begin(), versions.end()),
            (std::set<std::uint64_t>{2, 3, 4, 5}));
  EXPECT_EQ(service.LatestVersion("midtown"), 5u);
  const SnapshotPtr v1 = service.Snapshot("midtown", 1);
  const SnapshotPtr latest = service.Snapshot("midtown");
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->transit->num_active_routes(),
            v1->transit->num_active_routes() + 4);
}

}  // namespace
}  // namespace ctbus::service
