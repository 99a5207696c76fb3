#include "core/planner.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "gen/datasets.h"

namespace ctbus::core {
namespace {

CtBusOptions FastOptions() {
  CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

TEST(CtBusPlannerTest, PlanRouteDoesNotMutateNetwork) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusPlanner planner(d.road, d.transit, FastOptions());
  const int routes_before = planner.transit().num_routes();
  const auto result = planner.PlanRoute(Planner::kEtaPre);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(planner.transit().num_routes(), routes_before);
}

TEST(CtBusPlannerTest, CommitRouteRegistersRoute) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto result = planner.PlanRoute(Planner::kEtaPre);
  ASSERT_TRUE(result.found);
  const int routes_before = planner.transit().num_active_routes();
  const int route_id = planner.CommitRoute(result);
  EXPECT_EQ(planner.transit().num_active_routes(), routes_before + 1);
  EXPECT_EQ(planner.transit().route(route_id).stops, result.path.stops());
}

TEST(CtBusPlannerTest, CommitZeroesCoveredDemand) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto result = planner.PlanRoute(Planner::kEtaPre);
  ASSERT_TRUE(result.found);
  // Collect the road edges the route covers.
  std::vector<int> covered;
  for (int e : result.path.edges()) {
    const auto& road_edges = planner.context().universe().edge(e).road_edges;
    covered.insert(covered.end(), road_edges.begin(), road_edges.end());
  }
  planner.CommitRoute(result);
  for (int re : covered) {
    EXPECT_EQ(planner.road().trip_count(re), 0);
  }
}

TEST(CtBusPlannerTest, MultiRoutePlansDistinctRoutes) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto results = planner.PlanMultipleRoutes(2, Planner::kEtaPre);
  ASSERT_EQ(results.size(), 2u);
  // The two routes must differ (demand was zeroed, network updated).
  EXPECT_NE(results[0].path.stops(), results[1].path.stops());
  // Both committed.
  const gen::Dataset fresh = gen::MakeMidtown();
  EXPECT_EQ(planner.transit().num_active_routes(),
            fresh.transit.num_active_routes() + 2);
}

TEST(CtBusPlannerTest, SecondRouteSeesFirstRouteConnectivity) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto first = planner.PlanRoute(Planner::kEtaPre);
  ASSERT_TRUE(first.found);
  planner.CommitRoute(first);
  // The rebuilt context reflects the committed route: its universe treats
  // the new edges as existing now.
  const auto& universe = planner.context().universe();
  int found = 0;
  for (int e = 0; e < universe.num_edges(); ++e) {
    if (!universe.edge(e).is_new) continue;
    // No new candidate may duplicate a committed stop pair.
    EXPECT_FALSE(planner.transit()
                     .ActiveEdgeBetween(universe.edge(e).u,
                                        universe.edge(e).v)
                     .has_value());
    ++found;
  }
  EXPECT_GT(found, 0);
}

TEST(CtBusPlannerTest, VkTspThroughFacade) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto result = planner.PlanRoute(Planner::kVkTsp);
  ASSERT_TRUE(result.found);
  for (int e : result.path.edges()) {
    EXPECT_TRUE(planner.context().universe().edge(e).is_new);
  }
}

/// What two plans must share to count as the same result.
using PlanFingerprint =
    std::tuple<double, double, double, int, std::vector<int>>;

PlanFingerprint Fingerprint(const PlanResult& result) {
  return {result.objective, result.demand, result.connectivity_increment,
          result.iterations, result.path.edges()};
}

// RunPlanner is the only planner -> search mapping: the server and every
// test oracle plan through it, so this test is what pins the mapping.
TEST(RunPlannerTest, RunPlannerMatchesEachSearch) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusOptions options = FastOptions();
  // At w = 0.2 the three searches end on three different routes on
  // midtown; at the default 0.5, online ETA and ETA-Pre agree there.
  options.w = 0.2;
  const PlanningContext context =
      PlanningContext::Build(d.road, d.transit, options);
  const PlanResult eta = RunEta(&context, SearchMode::kOnline);
  const PlanResult eta_pre = RunEta(&context, SearchMode::kPrecomputed);
  const PlanResult vk_tsp = RunVkTsp(&context);
  ASSERT_TRUE(eta.found && eta_pre.found && vk_tsp.found);

  EXPECT_EQ(Fingerprint(RunPlanner(&context, Planner::kEta)),
            Fingerprint(eta));
  EXPECT_EQ(Fingerprint(RunPlanner(&context, Planner::kEtaPre)),
            Fingerprint(eta_pre));
  EXPECT_EQ(Fingerprint(RunPlanner(&context, Planner::kVkTsp)),
            Fingerprint(vk_tsp));

  // Pairwise distinct, so swapping any two cases of the mapping fails.
  EXPECT_NE(Fingerprint(eta), Fingerprint(eta_pre));
  EXPECT_NE(Fingerprint(eta), Fingerprint(vk_tsp));
  EXPECT_NE(Fingerprint(eta_pre), Fingerprint(vk_tsp));
}

}  // namespace
}  // namespace ctbus::core
