#include "gen/trip_generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
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

std::uint64_t DemandFingerprint(graph::RoadNetwork road) {
  Dataset d;
  d.road = std::move(road);
  return bench::DatasetFingerprint(d);
}

TEST(TripGeneratorTest, GeneratesRequestedTrips) {
  auto road = TestCity();
  TripOptions options;
  options.num_trips = 200;
  EXPECT_EQ(GenerateDemand(options, &road), 200);
  // Every trip crosses at least one edge.
  EXPECT_GE(road.TotalTripCount(), 200);
}

TEST(TripGeneratorTest, TripsFollowShortestPaths) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    auto road = TestCity();
    const graph::Graph& g = road.graph();
    TripOptions options;
    options.num_trips = 1;
    options.seed = seed;
    ASSERT_EQ(GenerateDemand(options, &road), 1);

    // The marked edges must form one simple path: every count is 0 or 1,
    // two vertices have degree 1, the others degree 0 or 2, and a walk
    // from one end crosses every marked edge.
    std::vector<int> degree(g.num_vertices(), 0);
    int marked = 0;
    for (int e = 0; e < g.num_edges(); ++e) {
      ASSERT_LE(road.trip_count(e), 1);
      if (road.trip_count(e) == 0) continue;
      ++marked;
      ++degree[g.edge(e).u];
      ++degree[g.edge(e).v];
    }
    std::vector<int> ends;
    for (int v = 0; v < g.num_vertices(); ++v) {
      ASSERT_LE(degree[v], 2);
      if (degree[v] == 1) ends.push_back(v);
    }
    ASSERT_EQ(ends.size(), 2u);
    double length = 0.0;
    int walked = 0;
    for (int v = ends[0], from_edge = -1; v != ends[1]; ++walked) {
      int next_edge = -1;
      for (const graph::Graph::AdjEntry& entry : g.Neighbors(v)) {
        if (entry.edge != from_edge && road.trip_count(entry.edge) == 1) {
          next_edge = entry.edge;
        }
      }
      ASSERT_GE(next_edge, 0);
      length += g.edge(next_edge).length;
      v = g.OtherEnd(next_edge, v);
      from_edge = next_edge;
    }
    EXPECT_EQ(walked, marked);
    EXPECT_NEAR(length, graph::Dijkstra(g, ends[0]).dist[ends[1]],
                1e-9 * length);
  }
}

TEST(TripGeneratorTest, DeterministicPerSeed) {
  TripOptions options;
  options.num_trips = 50;
  options.seed = 5;
  auto road_a = TestCity();
  auto road_b = TestCity();
  EXPECT_EQ(GenerateDemand(options, &road_a), 50);
  EXPECT_EQ(GenerateDemand(options, &road_b), 50);
  EXPECT_EQ(DemandFingerprint(std::move(road_a)),
            DemandFingerprint(std::move(road_b)));
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
  EXPECT_EQ(road.TotalTripCount(), 0);
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

// The fingerprint was recorded with the generator that replayed every
// trip's path on the calling thread in draw order.
TEST(TripGeneratorTest, DemandIsIdenticalAtAnyThreadCount) {
  TripOptions options;
  options.num_trips = 310;  // the last origin's batch is truncated to 10
  options.seed = 13;
  for (const int threads : {1, 2, 3, 8}) {
    auto road = TestCity();
    EXPECT_EQ(GenerateDemand(options, &road, threads), 310) << threads;
    EXPECT_EQ(DemandFingerprint(std::move(road)), 0xb24e8f0a50fa920cULL)
        << threads << " threads";
  }
}

TEST(TripGeneratorTest, MoreThreadsThanOrigins) {
  TripOptions options;
  options.num_trips = 30;  // two origins
  options.seed = 5;
  auto road_a = TestCity();
  auto road_b = TestCity();
  EXPECT_EQ(GenerateDemand(options, &road_a, 1),
            GenerateDemand(options, &road_b, 8));
  EXPECT_EQ(DemandFingerprint(std::move(road_a)),
            DemandFingerprint(std::move(road_b)));
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
