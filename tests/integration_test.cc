// End-to-end integration tests: the full pipeline from raw networks and
// trips through planning to evaluation, plus cross-module consistency
// checks that no unit suite covers alone.
#include <cstdio>
#include <unordered_set>

#include <gtest/gtest.h>

#include "connectivity/natural_connectivity.h"
#include "core/planner.h"
#include "eval/transfer_metrics.h"
#include "gen/city_generator.h"
#include "gen/datasets.h"
#include "gen/transit_generator.h"
#include "gen/trip_generator.h"
#include "io/geojson.h"
#include "io/network_io.h"

namespace ctbus {
namespace {

core::CtBusOptions FastOptions() {
  core::CtBusOptions options;
  options.k = 8;
  options.seed_count = 300;
  options.max_iterations = 400;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

TEST(IntegrationTest, FullPipelineFromScratch) {
  // Build every layer by hand instead of via the dataset preset.
  gen::CityOptions city_options;
  city_options.grid_width = 14;
  city_options.grid_height = 12;
  city_options.seed = 77;
  auto road = gen::GenerateCity(city_options);

  gen::TransitOptions transit_options;
  transit_options.num_routes = 6;
  transit_options.seed = 78;
  auto transit = gen::GenerateTransit(road, transit_options);
  ASSERT_GT(transit.num_stops(), 0);

  gen::TripOptions trip_options;
  trip_options.num_trips = 800;
  trip_options.seed = 79;
  ASSERT_EQ(gen::GenerateDemand(trip_options, &road), 800);
  ASSERT_GT(road.TotalTripCount(), 0);

  core::CtBusPlanner planner(road, transit, FastOptions());
  const auto result = planner.PlanRoute(core::Planner::kEtaPre);
  ASSERT_TRUE(result.found);
  EXPECT_GT(result.objective, 0.0);
  EXPECT_GT(result.demand, 0.0);

  const auto metrics = eval::EvaluateRoute(
      planner.transit(), planner.context().universe(), result.path.stops(),
      result.path.edges());
  EXPECT_GE(metrics.distance_ratio, 1.0);
  EXPECT_GE(metrics.crossed_routes, 0);
}

TEST(IntegrationTest, PlannedRouteActuallyImprovesConnectivity) {
  const gen::Dataset d = gen::MakeMidtown();
  core::CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto result = planner.PlanRoute(core::Planner::kEtaPre);
  ASSERT_TRUE(result.found);

  // Independently verify: exact natural connectivity before vs after
  // committing the route must rise by (approximately) the reported
  // increment.
  const double before =
      connectivity::NaturalConnectivityExact(d.transit.AdjacencyMatrix());
  planner.CommitRoute(result);
  const double after = connectivity::NaturalConnectivityExact(
      planner.transit().AdjacencyMatrix());
  EXPECT_GT(after, before);
  EXPECT_NEAR(after - before, result.connectivity_increment,
              0.5 * (after - before) + 0.02);
}

TEST(IntegrationTest, RoundTripThroughDiskPreservesPlanning) {
  const gen::Dataset d = gen::MakeMidtown();
  const std::string road_path = ::testing::TempDir() + "/it_road.tsv";
  const std::string transit_path = ::testing::TempDir() + "/it_transit.tsv";
  ASSERT_TRUE(io::SaveRoadNetwork(d.road, road_path));
  ASSERT_TRUE(io::SaveTransitNetwork(d.transit, transit_path));
  auto road = io::LoadRoadNetwork(road_path);
  auto transit = io::LoadTransitNetwork(transit_path);
  ASSERT_TRUE(road.has_value());
  ASSERT_TRUE(transit.has_value());

  core::CtBusPlanner original(d.road, d.transit, FastOptions());
  core::CtBusPlanner reloaded(*road, *transit, FastOptions());
  const auto a = original.PlanRoute(core::Planner::kEtaPre);
  const auto b = reloaded.PlanRoute(core::Planner::kEtaPre);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.path.stops(), b.path.stops());
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  std::remove(road_path.c_str());
  std::remove(transit_path.c_str());
}

TEST(IntegrationTest, GeoJsonExportOfPlannedRoute) {
  const gen::Dataset d = gen::MakeMidtown();
  core::CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto result = planner.PlanRoute(core::Planner::kEtaPre);
  ASSERT_TRUE(result.found);
  io::GeoJsonWriter geo;
  geo.AddTransitNetwork(d.transit, true);
  geo.AddPlannedRoute(planner.transit(), result.path.stops(), "planned");
  const std::string json = geo.ToString();
  EXPECT_NE(json.find("planned"), std::string::npos);
  EXPECT_GT(geo.num_features(), d.transit.num_active_routes());
}

TEST(IntegrationTest, MultiRouteCommitsKeepNetworkConsistent) {
  const gen::Dataset d = gen::MakeMidtown();
  core::CtBusPlanner planner(d.road, d.transit, FastOptions());
  const auto results = planner.PlanMultipleRoutes(3, core::Planner::kEtaPre);
  ASSERT_GE(results.size(), 2u);
  // The transit network's adjacency must stay consistent with its active
  // edges, and connectivity must rise monotonically across commits.
  const auto adjacency = planner.transit().AdjacencyMatrix();
  EXPECT_EQ(adjacency.num_entries(), planner.transit().num_active_edges());
  // Every committed route's stops form a walk over active edges.
  for (const auto& r : results) {
    const auto& stops = r.path.stops();
    for (std::size_t i = 1; i < stops.size(); ++i) {
      EXPECT_TRUE(planner.transit()
                      .ActiveEdgeBetween(stops[i - 1], stops[i])
                      .has_value());
    }
  }
}

}  // namespace
}  // namespace ctbus
