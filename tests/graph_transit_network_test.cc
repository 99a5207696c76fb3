#include "graph/transit_network.h"

#include <gtest/gtest.h>

#include "graph/road_network.h"

namespace ctbus::graph {
namespace {

// Two routes sharing stop 1:
//   route 0: 0 - 1 - 2
//   route 1: 3 - 1 - 4
TransitNetwork MakeCross() {
  TransitNetwork t;
  for (int i = 0; i < 5; ++i) {
    t.AddStop(i, {static_cast<double>(i) * 100, 0});
  }
  t.AddEdge(0, 1, 100, {});
  t.AddEdge(1, 2, 100, {});
  t.AddEdge(3, 1, 100, {});
  t.AddEdge(1, 4, 100, {});
  t.AddRoute({0, 1, 2});
  t.AddRoute({3, 1, 4});
  return t;
}

TEST(TransitNetworkTest, CountsAfterConstruction) {
  const TransitNetwork t = MakeCross();
  EXPECT_EQ(t.num_stops(), 5);
  EXPECT_EQ(t.num_edges(), 4);
  EXPECT_EQ(t.num_active_edges(), 4);
  EXPECT_EQ(t.num_routes(), 2);
  EXPECT_EQ(t.num_active_routes(), 2);
}

TEST(TransitNetworkTest, AddEdgeDeduplicates) {
  TransitNetwork t;
  t.AddStop(0, {0, 0});
  t.AddStop(1, {1, 0});
  const int e1 = t.AddEdge(0, 1, 5.0, {});
  const int e2 = t.AddEdge(1, 0, 7.0, {});
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(t.num_edges(), 1);
  EXPECT_DOUBLE_EQ(t.edge(e1).length, 5.0);
}

TEST(TransitNetworkTest, EdgeWithoutRouteIsInactive) {
  TransitNetwork t;
  t.AddStop(0, {0, 0});
  t.AddStop(1, {1, 0});
  const int e = t.AddEdge(0, 1, 5.0, {});
  EXPECT_FALSE(t.EdgeActive(e));
  EXPECT_EQ(t.num_active_edges(), 0);
  EXPECT_FALSE(t.ActiveEdgeBetween(0, 1).has_value());
  EXPECT_TRUE(t.AnyEdgeBetween(0, 1).has_value());
}

TEST(TransitNetworkTest, RoutesAtStopSharedStop) {
  const TransitNetwork t = MakeCross();
  EXPECT_EQ(t.RoutesAtStop(1), (std::vector<int>{0, 1}));
  EXPECT_EQ(t.RoutesAtStop(0), std::vector<int>{0});
}

TEST(TransitNetworkTest, ActiveNeighbors) {
  const TransitNetwork t = MakeCross();
  EXPECT_EQ(t.ActiveNeighbors(1).size(), 4u);
  EXPECT_EQ(t.ActiveNeighbors(0).size(), 1u);
}

TEST(TransitNetworkTest, AdjacencyMatrixMatchesActiveEdges) {
  const TransitNetwork t = MakeCross();
  const auto a = t.AdjacencyMatrix();
  EXPECT_EQ(a.dim(), 5);
  EXPECT_EQ(a.num_entries(), 4);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.At(0, 2), 0.0);
}

TEST(TransitNetworkTest, RemoveRouteDeactivatesExclusiveEdges) {
  TransitNetwork t = MakeCross();
  t.RemoveRoute(0);
  EXPECT_EQ(t.num_active_routes(), 1);
  EXPECT_EQ(t.num_active_edges(), 2);
  EXPECT_FALSE(t.ActiveEdgeBetween(0, 1).has_value());
  EXPECT_TRUE(t.ActiveEdgeBetween(3, 1).has_value());
  const auto a = t.AdjacencyMatrix();
  EXPECT_EQ(a.num_entries(), 2);
}

TEST(TransitNetworkTest, RemoveRouteKeepsSharedEdges) {
  TransitNetwork t;
  for (int i = 0; i < 3; ++i) t.AddStop(i, {static_cast<double>(i), 0});
  t.AddEdge(0, 1, 1.0, {});
  t.AddEdge(1, 2, 1.0, {});
  t.AddRoute({0, 1, 2});
  t.AddRoute({0, 1});  // shares edge 0-1
  t.RemoveRoute(0);
  EXPECT_TRUE(t.ActiveEdgeBetween(0, 1).has_value());
  EXPECT_FALSE(t.ActiveEdgeBetween(1, 2).has_value());
}

TEST(TransitNetworkTest, RemoveRouteTwiceIsIdempotent) {
  TransitNetwork t = MakeCross();
  t.RemoveRoute(0);
  t.RemoveRoute(0);
  EXPECT_EQ(t.num_active_routes(), 1);
  EXPECT_EQ(t.num_active_edges(), 2);
}

TEST(TransitNetworkTest, AverageRouteLength) {
  const TransitNetwork t = MakeCross();
  EXPECT_DOUBLE_EQ(t.AverageRouteLength(), 3.0);
}

TEST(TransitNetworkTest, AverageRouteLengthAfterRemoval) {
  TransitNetwork t = MakeCross();
  t.RemoveRoute(1);
  EXPECT_DOUBLE_EQ(t.AverageRouteLength(), 3.0);
  t.RemoveRoute(0);
  EXPECT_DOUBLE_EQ(t.AverageRouteLength(), 0.0);
}

TEST(TransitNetworkTest, StopPositions) {
  const TransitNetwork t = MakeCross();
  const auto positions = t.StopPositions();
  ASSERT_EQ(positions.size(), 5u);
  EXPECT_DOUBLE_EQ(positions[2].x, 200.0);
}

TEST(TransitNetworkTest, RouteReaddedAfterRemovalReactivatesEdges) {
  TransitNetwork t = MakeCross();
  t.RemoveRoute(0);
  const int r = t.AddRoute({0, 1, 2});
  EXPECT_EQ(r, 2);
  EXPECT_EQ(t.num_active_edges(), 4);
  EXPECT_TRUE(t.ActiveEdgeBetween(0, 1).has_value());
}

TEST(RoadNetworkTest, DemandAccumulationAndWeights) {
  Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({100, 0});
  g.AddVertex({200, 0});
  g.AddEdge(0, 1, 100.0);
  g.AddEdge(1, 2, 50.0);
  RoadNetwork road(std::move(g));
  road.AddTripCount(0);
  road.AddTripCount(0);
  road.AddTripCount(1, 3);
  EXPECT_EQ(road.trip_count(0), 2);
  EXPECT_DOUBLE_EQ(road.DemandWeight(0), 200.0);
  EXPECT_DOUBLE_EQ(road.DemandWeight(1), 150.0);
  EXPECT_DOUBLE_EQ(road.PathDemand({0, 1}), 350.0);
  // A transit edge with no road path meets no demand.
  EXPECT_DOUBLE_EQ(road.PathDemand({}), 0.0);
  EXPECT_EQ(road.TotalTripCount(), 5);
}

TEST(RoadNetworkTest, ZeroAndResetTripCounts) {
  Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({1, 0});
  g.AddVertex({2, 0});
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  RoadNetwork road(std::move(g));
  road.AddTripCount(0, 5);
  road.AddTripCount(1, 7);
  road.ZeroTripCounts({0});
  EXPECT_EQ(road.trip_count(0), 0);
  EXPECT_EQ(road.trip_count(1), 7);
  road.ResetTripCounts();
  EXPECT_EQ(road.TotalTripCount(), 0);
}

}  // namespace
}  // namespace ctbus::graph
