#include "gen/trip_generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "demand/demand_index.h"
#include "gen/city_generator.h"
#include "graph/shortest_path.h"

namespace ctbus::gen {
namespace {

graph::RoadNetwork TestCity() {
  CityOptions options;
  options.grid_width = 15;
  options.grid_height = 15;
  options.seed = 21;
  return GenerateCity(options);
}

TEST(TripGeneratorTest, GeneratesRequestedTrips) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 200;
  const auto trips = GenerateTrips(road, options);
  EXPECT_EQ(trips.size(), 200u);
}

TEST(TripGeneratorTest, TrajectoriesAreValidWalks) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 100;
  const auto trips = GenerateTrips(road, options);
  for (const auto& t : trips) {
    ASSERT_GE(t.num_points(), 2);
    EXPECT_EQ(t.edges().size(), static_cast<std::size_t>(t.num_points() - 1));
    EXPECT_GT(t.Length(road.graph()), 0.0);
    EXPECT_GT(t.Duration(), 0.0);
  }
}

TEST(TripGeneratorTest, TrajectoriesAreShortestPaths) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 30;
  const auto trips = GenerateTrips(road, options);
  for (const auto& t : trips) {
    const int origin = t.points().front().vertex;
    const int destination = t.points().back().vertex;
    const auto sp =
        graph::ShortestPathBetween(road.graph(), origin, destination);
    ASSERT_TRUE(sp.has_value());
    EXPECT_NEAR(t.Length(road.graph()), sp->length, 1e-9);
  }
}

TEST(TripGeneratorTest, DeterministicPerSeed) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 50;
  options.seed = 5;
  const auto a = GenerateTrips(road, options);
  const auto b = GenerateTrips(road, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].num_points(), b[i].num_points());
    EXPECT_EQ(a[i].points().front().vertex, b[i].points().front().vertex);
    EXPECT_EQ(a[i].points().back().vertex, b[i].points().back().vertex);
  }
}

TEST(TripGeneratorTest, GenerateDemandMatchesTrajectoryAccumulation) {
  auto road_a = TestCity();
  auto road_b = TestCity();
  TripOptions options;
  options.num_trips = 150;
  options.seed = 9;
  const auto trips = GenerateTrips(road_a, options);
  demand::AccumulateTrajectories(trips, &road_a);
  const auto count = GenerateDemand(options, &road_b);
  EXPECT_EQ(count, 150);
  for (int e = 0; e < road_a.graph().num_edges(); ++e) {
    EXPECT_EQ(road_a.trip_count(e), road_b.trip_count(e));
  }
}

TEST(TripGeneratorTest, HotspotsConcentrateDemand) {
  // With strong hotspot weight, demand should be far from uniform:
  // the busiest edge must carry many times the mean demand.
  auto road = TestCity();
  TripOptions options;
  options.num_trips = 2000;
  options.hotspot_weight = 0.95;
  options.num_hotspots = 2;
  options.hotspot_stddev = 150.0;
  options.seed = 31;
  GenerateDemand(options, &road);
  std::int64_t max_count = 0;
  for (int e = 0; e < road.graph().num_edges(); ++e) {
    max_count = std::max(max_count, road.trip_count(e));
  }
  const double mean = static_cast<double>(road.TotalTripCount()) /
                      road.graph().num_edges();
  EXPECT_GT(static_cast<double>(max_count), 5.0 * mean);
}

TEST(TripGeneratorTest, ZeroTripsRequested) {
  auto road = TestCity();
  TripOptions options;
  options.num_trips = 0;
  EXPECT_EQ(GenerateDemand(options, &road), 0);
  EXPECT_TRUE(GenerateTrips(road, options).empty());
}

TEST(TripGeneratorTest, TinyGraphDoesNotHang) {
  graph::Graph g;
  g.AddVertex({0, 0});
  graph::RoadNetwork road(std::move(g));
  TripOptions options;
  options.num_trips = 10;
  EXPECT_EQ(GenerateDemand(options, &road), 0);
}

// Square grids of `side` x `side` vertices, 100 m apart, each its own
// road component (laid out side by side), then `isolated` vertices with no
// edge at all.
graph::RoadNetwork Components(const std::vector<int>& sides, int isolated) {
  graph::Graph g;
  double x0 = 0.0;
  for (const int side : sides) {
    const int first = g.num_vertices();
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) g.AddVertex({x0 + 100.0 * x, 100.0 * y});
    }
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) {
        const int v = first + y * side + x;
        if (x + 1 < side) g.AddEdge(v, v + 1, 100.0);
        if (y + 1 < side) g.AddEdge(v, v + side, 100.0);
      }
    }
    x0 += 100.0 * side + 500.0;
  }
  for (int i = 0; i < isolated; ++i) g.AddVertex({x0 + 60.0 * i, 0.0});
  return graph::RoadNetwork(std::move(g));
}

std::uint64_t DemandFingerprint(graph::RoadNetwork road) {
  Dataset d;
  d.road = std::move(road);
  return bench::DatasetFingerprint(d);
}

// Every trajectory field, flattened: the vertex path, its timestamps (the
// start time encodes the trip's position in the output) and its edges.
std::vector<double> Flatten(const std::vector<demand::Trajectory>& trips) {
  std::vector<double> out;
  for (const demand::Trajectory& t : trips) {
    out.push_back(t.num_points());
    for (const demand::TrajectoryPoint& p : t.points()) {
      out.push_back(p.vertex);
      out.push_back(p.timestamp);
    }
    for (const int e : t.edges()) out.push_back(e);
  }
  return out;
}

TEST(TripGeneratorTest, TrajectoriesAreIdenticalAtAnyThreadCount) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 310;  // the last origin's batch is truncated to 10
  options.seed = 13;
  const auto serial = GenerateTrips(road, options, 1);
  ASSERT_EQ(serial.size(), 310u);
  for (const int threads : {2, 3, 8}) {
    EXPECT_EQ(Flatten(GenerateTrips(road, options, threads)),
              Flatten(serial))
        << threads << " threads";
  }
}

TEST(TripGeneratorTest, MoreThreadsThanOrigins) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 30;  // two origins
  options.seed = 5;
  const auto serial = GenerateTrips(road, options, 1);
  EXPECT_EQ(Flatten(GenerateTrips(road, options, 8)), Flatten(serial));
  auto road_a = TestCity();
  auto road_b = TestCity();
  EXPECT_EQ(GenerateDemand(options, &road_a, 1),
            GenerateDemand(options, &road_b, 8));
  EXPECT_EQ(DemandFingerprint(road_a), DemandFingerprint(road_b));
}

// The counts and fingerprints below were recorded with the generator that
// grew one full tree per origin on one thread, before trip success was
// decided from road components.
TEST(TripGeneratorTest, FailureBudgetReplaysExactly) {
  // 16 connected vertices among 116: almost every draw fails, and the
  // failure budget (10 * 50 + 1000) ends the run after 7 trips.
  TripOptions options;
  options.num_trips = 50;
  options.seed = 7;
  for (const int threads : {1, 2, 3, 8}) {
    auto road = Components({4}, 100);
    EXPECT_EQ(GenerateDemand(options, &road, threads), 7) << threads;
    EXPECT_EQ(DemandFingerprint(std::move(road)), 0xa92e263c0ea49a22ULL)
        << threads << " threads";
  }
}

TEST(TripGeneratorTest, DisconnectedRoadsReplayExactly) {
  // Three grid components and three isolated vertices: cross-component
  // draws fail, the rest follow their own component's tree.
  TripOptions options;
  options.num_trips = 150;
  options.seed = 11;
  for (const int threads : {1, 2, 3, 8}) {
    auto road = Components({6, 5, 4}, 3);
    EXPECT_EQ(GenerateDemand(options, &road, threads), 150) << threads;
    EXPECT_EQ(DemandFingerprint(std::move(road)), 0x2f52e5def8b7a828ULL)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace ctbus::gen
