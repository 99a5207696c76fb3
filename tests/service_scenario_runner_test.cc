// Dedicated ScenarioRunner coverage: sweep fan-out over the axes,
// pinned-snapshot isolation across commits, precompute sharing, and the
// sweep-priority contract (sweeps yield to interactive traffic).
#include "service/scenario_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/planning_service.h"

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

core::PlanResult SerialPlan(const gen::Dataset& d,
                            const core::CtBusOptions& options,
                            core::Planner planner) {
  core::PlanningContext context =
      core::PlanningContext::Build(d.road, d.transit, options);
  return core::RunPlanner(&context, planner);
}

void ExpectBitIdentical(const core::PlanResult& actual,
                        const core::PlanResult& expected) {
  ASSERT_EQ(actual.found, expected.found);
  if (!expected.found) return;
  EXPECT_EQ(actual.path.edges(), expected.path.edges());
  EXPECT_EQ(actual.path.stops(), expected.path.stops());
  EXPECT_EQ(actual.objective, expected.objective);
  EXPECT_EQ(actual.demand, expected.demand);
  EXPECT_EQ(actual.connectivity_increment, expected.connectivity_increment);
  EXPECT_EQ(actual.iterations, expected.iterations);
}

TEST(ScenarioRunnerTest, SweepMatchesSerialAndSharesOnePrecompute) {
  const gen::Dataset d = gen::MakeMidtown();

  ServiceOptions service_options;
  service_options.num_threads = 4;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  SweepSpec spec;
  spec.dataset = "midtown";
  spec.base = FastOptions();
  spec.ks = {4, 6};
  spec.ws = {0.3, 0.7};
  ScenarioRunner runner(&service);
  const std::vector<SweepCell> cells = runner.Run(spec);
  ASSERT_EQ(cells.size(), 4u);

  for (const SweepCell& cell : cells) {
    core::CtBusOptions options = FastOptions();
    options.k = cell.k;
    options.w = cell.w;
    ExpectBitIdentical(cell.result.plan,
                       SerialPlan(d, options, cell.planner));
    EXPECT_EQ(cell.result.stats.snapshot_version, 1u);
    EXPECT_EQ(cell.result.request.priority, Priority::kSweep);
  }
  // k / w do not enter the precompute key: the whole sweep costs one
  // compute. Every other cell hit the cache — never recomputed.
  const auto cache = service.cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 3u);
}

TEST(ScenarioRunnerTest, FanOutCoversAllAxesInSubmissionOrder) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  SweepSpec spec;
  spec.dataset = "midtown";
  spec.base = FastOptions();
  spec.ks = {4, 6};
  spec.ws = {0.3, 0.7};
  spec.planners = {core::Planner::kEtaPre, core::Planner::kVkTsp};
  const std::vector<SweepCell> cells = ScenarioRunner(&service).Run(spec);
  ASSERT_EQ(cells.size(), 8u);

  // Row-major (k, w, planner) order, every combination exactly once.
  std::size_t i = 0;
  for (int k : spec.ks) {
    for (double w : spec.ws) {
      for (core::Planner planner : spec.planners) {
        EXPECT_EQ(cells[i].k, k);
        EXPECT_EQ(cells[i].w, w);
        EXPECT_EQ(cells[i].planner, planner);
        ++i;
      }
    }
  }

  // Empty axes fall back to the base options / default planner.
  SweepSpec base_only;
  base_only.dataset = "midtown";
  base_only.base = FastOptions();
  const std::vector<SweepCell> single = ScenarioRunner(&service).Run(base_only);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].k, base_only.base.k);
  EXPECT_EQ(single[0].w, base_only.base.w);
  EXPECT_EQ(single[0].planner, core::Planner::kEtaPre);
}

TEST(ScenarioRunnerTest, SweepPinsTheLaunchSnapshot) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // Advance the city once so latest != 1.
  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();
  const ServiceResult first = service.Plan(request);
  service.Commit(first);

  SweepSpec spec;
  spec.dataset = "midtown";
  spec.base = FastOptions();
  spec.ws = {0.2, 0.5, 0.8};
  const std::vector<SweepCell> cells = ScenarioRunner(&service).Run(spec);
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.result.stats.snapshot_version, 2u);
  }
}

TEST(ScenarioRunnerTest, PinnedSweepIsolatedFromInterleavedCommits) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  SweepSpec spec;
  spec.dataset = "midtown";
  spec.base = FastOptions();
  spec.ws = {0.3, 0.6};
  spec.snapshot_version = 1;

  // Baseline sweep against v1, then commit its best cell (city advances).
  ScenarioRunner runner(&service);
  const std::vector<SweepCell> before = runner.Run(spec);
  ASSERT_TRUE(before[0].result.plan.found);
  service.Commit(before[0].result);
  ASSERT_EQ(service.LatestVersion("midtown"), 2u);

  // Re-running the same pinned sweep after the commit must replay
  // bit-identically: the pin isolates it from the city's advance.
  const std::vector<SweepCell> after = runner.Run(spec);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    ExpectBitIdentical(after[i].result.plan, before[i].result.plan);
    EXPECT_EQ(after[i].result.stats.snapshot_version, 1u);
  }
}

TEST(ScenarioRunnerTest, SweepCellsYieldToInteractiveRequests) {
  // One worker, parked: enqueue a sweep flood first, then interactive
  // requests. On Start() the worker must serve every interactive request
  // before any sweep cell — observable through execute_sequence, with no
  // wall-clock races.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  ScenarioRunner runner(&service);
  SweepSpec spec;
  spec.dataset = "midtown";
  spec.base = FastOptions();
  spec.ws = {0.2, 0.4, 0.6, 0.8};
  spec.snapshot_version = 1;  // Run must not ask the paused pool anything

  // Run() blocks on results, so fan the sweep out from a helper thread; it
  // enqueues all cells (the queue has room) and then waits.
  std::future<std::vector<SweepCell>> sweep = std::async(
      std::launch::async, [&runner, &spec] { return runner.Run(spec); });
  // Wait until every sweep cell is queued before submitting interactive.
  while (service.service_stats().submitted < 4) {
    std::this_thread::yield();
  }

  std::vector<std::future<ServiceResult>> interactive;
  for (int i = 0; i < 2; ++i) {
    PlanRequest request;
    request.dataset = "midtown";
    request.options = FastOptions();
    request.priority = Priority::kInteractive;
    interactive.push_back(service.Submit(std::move(request)));
  }

  service.Start();
  std::vector<std::uint64_t> interactive_sequences;
  for (auto& future : interactive) {
    interactive_sequences.push_back(future.get().stats.execute_sequence);
  }
  const std::vector<SweepCell> cells = sweep.get();

  // Interactive requests were enqueued *after* the whole sweep, yet every
  // one executed before every sweep cell.
  std::uint64_t min_sweep_sequence = ~0ull;
  for (const SweepCell& cell : cells) {
    min_sweep_sequence =
        std::min(min_sweep_sequence, cell.result.stats.execute_sequence);
    EXPECT_EQ(cell.result.request.priority, Priority::kSweep);
  }
  for (std::uint64_t sequence : interactive_sequences) {
    EXPECT_LT(sequence, min_sweep_sequence);
  }
}

}  // namespace
}  // namespace ctbus::service
