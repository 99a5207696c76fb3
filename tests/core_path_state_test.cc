#include "core/path_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/geo.h"
#include "graph/transit_network.h"
#include "linalg/rng.h"

namespace ctbus::core {
namespace {

// A tiny hand-built transit layout (all coordinates in meters):
//
//   s0 --- s1 --- s2 --- s3     (horizontal line, y = 0)
//                  |
//                 s4 at (220, 100): ~79-degree turn from the line
//   s5 at (400, 50): ~27-degree deviation from s3 (no turn)
//
// The universe is built through the public Build API with tau = 1 so that
// it contains exactly the existing transit edges.
graph::TransitNetwork LineTransit() {
  graph::TransitNetwork t;
  t.AddStop(0, {0, 0});
  t.AddStop(1, {100, 0});
  t.AddStop(2, {200, 0});
  t.AddStop(3, {300, 0});
  t.AddStop(4, {220, 100});
  t.AddStop(5, {400, 50});
  t.AddEdge(0, 1, 100, {});
  t.AddEdge(1, 2, 100, {});
  t.AddEdge(2, 3, 100, {});
  t.AddEdge(2, 4, 102, {});
  t.AddEdge(3, 5, 112, {});
  t.AddRoute({0, 1, 2, 3});
  t.AddRoute({4, 2});
  t.AddRoute({3, 5});
  return t;
}

// A road network that makes Build treat the transit edges as existing with
// empty road paths is not needed: transit edges already carry empty road
// paths here, and tau = 1 produces no new candidates.
graph::RoadNetwork EmptyRoad() {
  graph::Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({1, 0});
  g.AddEdge(0, 1, 1.0);
  return graph::RoadNetwork(std::move(g));
}

EdgeUniverse LineUniverse(const graph::RoadNetwork& road,
                          const graph::TransitNetwork& transit) {
  EdgeUniverseOptions options;
  options.tau = 1.0;  // no new candidates; universe = existing edges
  return EdgeUniverse::Build(road, transit, options);
}

int UniverseEdgeBetween(const EdgeUniverse& u, int a, int b) {
  for (int e = 0; e < u.num_edges(); ++e) {
    if ((u.edge(e).u == a && u.edge(e).v == b) ||
        (u.edge(e).u == b && u.edge(e).v == a)) {
      return e;
    }
  }
  return -1;
}

TEST(CandidatePathTest, SeedPathBasics) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  ASSERT_GE(e01, 0);
  const CandidatePath path(u, e01);
  EXPECT_EQ(path.num_edges(), 1);
  EXPECT_EQ(path.turns(), 0);
  EXPECT_FALSE(path.closed());
  EXPECT_EQ(path.begin_edge(), e01);
  EXPECT_EQ(path.end_edge(), e01);
}

TEST(CandidatePathTest, ExtendAtEndGrowsPath) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  CandidatePath path(u, e01);
  const int end = path.end_stop() == 1 ? 1 : path.begin_stop();
  ASSERT_TRUE(path.CanExtend(u, e12, end));
  path.Extend(u, transit, e12, end);
  EXPECT_EQ(path.num_edges(), 2);
  EXPECT_EQ(path.turns(), 0);  // straight line
  EXPECT_DOUBLE_EQ(path.demand(),
                   u.edge(e01).demand + u.edge(e12).demand);
}

TEST(CandidatePathTest, StraightLineHasNoTurns) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 0, 1));
  for (const auto& [from, to] : {std::pair{1, 2}, std::pair{2, 3}}) {
    const int e = UniverseEdgeBetween(u, from, to);
    const int at = path.end_stop() == from ? path.end_stop()
                                           : path.begin_stop();
    ASSERT_TRUE(path.CanExtend(u, e, at));
    path.Extend(u, transit, e, at);
  }
  EXPECT_EQ(path.turns(), 0);
}

TEST(CandidatePathTest, SteepTurnCountsOne) {
  // 1-2 then 2-4 deviates ~79 degrees: counted as one turn (pi/4 < angle
  // <= pi/2), not a sharp-turn kill.
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 1, 2));
  // Orient: make sure end is stop 2.
  int at = path.end_stop() == 2 ? path.end_stop() : path.begin_stop();
  const int e24 = UniverseEdgeBetween(u, 2, 4);
  ASSERT_TRUE(path.CanExtend(u, e24, at));
  path.Extend(u, transit, e24, at);
  EXPECT_GE(path.turns(), 1);
  EXPECT_LT(path.turns(), CandidatePath::kSharpTurnPenalty);
}

TEST(CandidatePathTest, ShallowDeviationIsNotATurn) {
  // 2-3 then 3-5: deviation ~27 degrees < pi/4, so no turn is counted.
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 2, 3));
  const int at = path.end_stop() == 3 ? path.end_stop() : path.begin_stop();
  const int e35 = UniverseEdgeBetween(u, 3, 5);
  ASSERT_TRUE(path.CanExtend(u, e35, at));
  path.Extend(u, transit, e35, at);
  EXPECT_EQ(path.turns(), 0);
}

TEST(CandidatePathTest, CannotReuseEdge) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const CandidatePath path(u, e01);
  EXPECT_FALSE(path.CanExtend(u, e01, path.end_stop()));
  EXPECT_FALSE(path.CanExtend(u, e01, path.begin_stop()));
}

TEST(CandidatePathTest, CannotRevisitStop) {
  // Path 0-1-2; extending at 2 with edge 2-4 is fine, but after 0-1-2-4,
  // nothing may return to stop 1.
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 0, 1));
  int at = path.end_stop() == 1 ? path.end_stop() : path.begin_stop();
  path.Extend(u, transit, UniverseEdgeBetween(u, 1, 2), at);
  // Try to extend the 2-end back toward 1 via edge 1-2: edge reuse, blocked.
  EXPECT_FALSE(path.CanExtend(u, UniverseEdgeBetween(u, 1, 2),
                              path.end_stop() == 2 ? path.end_stop()
                                                   : path.begin_stop()));
}

TEST(CandidatePathTest, ExtendAtBeginPrepends) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  CandidatePath path(u, e12);
  // Extend toward 0 at whichever end is stop 1.
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int at = path.begin_stop() == 1 ? path.begin_stop() : path.end_stop();
  ASSERT_TRUE(path.CanExtend(u, e01, at));
  path.Extend(u, transit, e01, at);
  EXPECT_EQ(path.num_edges(), 2);
  // Stops must be a contiguous chain 0-1-2 (in either direction).
  const auto& stops = path.stops();
  const bool forward = stops == std::vector<int>({0, 1, 2});
  const bool backward = stops == std::vector<int>({2, 1, 0});
  EXPECT_TRUE(forward || backward);
}

TEST(CandidatePathTest, RoadEdgeConflictBlocksExtension) {
  // Craft transit edges sharing a road edge.
  graph::Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({100, 0});
  g.AddVertex({200, 0});
  g.AddEdge(0, 1, 100.0);
  g.AddEdge(1, 2, 100.0);
  graph::RoadNetwork road(std::move(g));
  graph::TransitNetwork transit;
  transit.AddStop(0, {0, 0});
  transit.AddStop(1, {100, 0});
  transit.AddStop(2, {200, 0});
  transit.AddEdge(0, 1, 100, {0});
  transit.AddEdge(1, 2, 200, {1, 0});  // loops back over road edge 0
  transit.AddRoute({0, 1});
  transit.AddRoute({1, 2});
  EdgeUniverseOptions options;
  options.tau = 1.0;
  const auto u = EdgeUniverse::Build(road, transit, options);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  ASSERT_GE(e01, 0);
  ASSERT_GE(e12, 0);
  const CandidatePath path(u, e01);
  const int at = path.end_stop() == 1 ? path.end_stop() : path.begin_stop();
  EXPECT_FALSE(path.CanExtend(u, e12, at));
}


// Brute-force reference for a CandidatePath, recomputed from its edge and
// stop sequences alone: the visited stops are the stop list, and the road
// edges are the multiset of every path edge's road edges.
struct ReferencePath {
  const EdgeUniverse* universe;
  const graph::TransitNetwork* transit;
  const CandidatePath* path;

  bool Closed() const {
    return path->num_edges() >= 2 &&
           path->stops().front() == path->stops().back();
  }

  std::vector<int> RoadEdges() const {
    std::vector<int> road_edges;
    for (int e : path->edges()) {
      const auto& crossed = universe->edge(e).road_edges;
      road_edges.insert(road_edges.end(), crossed.begin(), crossed.end());
    }
    return road_edges;
  }

  bool CanExtend(int edge, int at_stop) const {
    if (Closed()) return false;
    const PlannableEdge& e = universe->edge(edge);
    if (e.u != at_stop && e.v != at_stop) return false;
    const int far = e.u == at_stop ? e.v : e.u;
    const std::vector<int>& stops = path->stops();
    const int opposite =
        at_stop == stops.back() ? stops.front() : stops.back();
    const bool visited =
        std::count(stops.begin(), stops.end(), far) > 0;
    if (visited && !(far == opposite && path->num_edges() >= 2)) return false;
    if (std::count(path->edges().begin(), path->edges().end(), edge) > 0) {
      return false;
    }
    const std::vector<int> road_edges = RoadEdges();
    for (int re : e.road_edges) {
      if (std::count(road_edges.begin(), road_edges.end(), re) > 0) {
        return false;
      }
    }
    return true;
  }

  // Algorithm 2's turn count over every interior junction of the stop
  // sequence (a loop's closing stop is not a junction).
  int Turns() const {
    const std::vector<int>& stops = path->stops();
    int turns = 0;
    for (std::size_t i = 1; i + 1 < stops.size(); ++i) {
      const double angle = graph::TurnAngle(
          transit->stop(stops[i - 1]).position,
          transit->stop(stops[i]).position,
          transit->stop(stops[i + 1]).position);
      if (angle > M_PI / 2) {
        turns += CandidatePath::kSharpTurnPenalty;
      } else if (angle > M_PI / 4) {
        turns += 1;
      }
    }
    return turns;
  }

  double Demand() const {
    double demand = 0.0;
    for (int e : path->edges()) demand += universe->edge(e).demand;
    return demand;
  }

  int NumNewEdges() const {
    int count = 0;
    for (int e : path->edges()) count += universe->edge(e).is_new ? 1 : 0;
    return count;
  }
};

// Which rule decided a rejected extension, for the coverage counts.
struct WalkCoverage {
  int extensions = 0;
  int begin_extensions = 0;
  int loop_closures = 0;
  int road_overlap_rejections = 0;
  int stop_revisit_rejections = 0;
};

void ExpectAgreesWithReference(const ReferencePath& ref) {
  const CandidatePath& path = *ref.path;
  ASSERT_EQ(path.stops().size(),
            static_cast<std::size_t>(path.num_edges()) + 1);
  EXPECT_EQ(path.closed(), ref.Closed());
  EXPECT_EQ(path.turns(), ref.Turns());
  EXPECT_NEAR(path.demand(), ref.Demand(), 1e-9 * (1.0 + ref.Demand()));
  EXPECT_EQ(path.num_new_edges(), ref.NumNewEdges());
}

// One pinned-seed random walk: grows a seed path at a random end, checks
// CanExtend against the reference for every incident edge at that end,
// and takes a random feasible one (a loop closure when one is feasible and
// a coin says so), until the path is closed, stuck or max_edges long.
void RandomWalk(const EdgeUniverse& universe,
                const graph::TransitNetwork& transit, linalg::Rng* rng,
                int max_edges, WalkCoverage* coverage) {
  CandidatePath path(universe, static_cast<int>(rng->NextIndex(
                                   universe.num_edges())));
  const ReferencePath ref{&universe, &transit, &path};
  ExpectAgreesWithReference(ref);
  while (path.num_edges() < max_edges && !path.closed()) {
    const bool at_end = rng->NextIndex(2) == 0;
    const int at_stop = at_end ? path.end_stop() : path.begin_stop();
    std::vector<int> feasible;
    std::vector<int> closing;
    const int opposite = at_end ? path.begin_stop() : path.end_stop();
    for (int e : universe.IncidentEdges(at_stop)) {
      const bool can = path.CanExtend(universe, e, at_stop);
      ASSERT_EQ(can, ref.CanExtend(e, at_stop))
          << "edge " << e << " at stop " << at_stop;
      const int far = universe.edge(e).u == at_stop ? universe.edge(e).v
                                                    : universe.edge(e).u;
      if (can) {
        feasible.push_back(e);
        if (far == opposite) closing.push_back(e);
        continue;
      }
      const bool revisits =
          std::count(path.stops().begin(), path.stops().end(), far) > 0;
      const bool reused = std::count(path.edges().begin(),
                                     path.edges().end(), e) > 0;
      if (revisits && !reused) {
        ++coverage->stop_revisit_rejections;
      } else if (!revisits && !reused) {
        ++coverage->road_overlap_rejections;
      }
    }
    if (feasible.empty()) break;
    const bool close = !closing.empty() && rng->NextIndex(2) == 0;
    const std::vector<int>& pool = close ? closing : feasible;
    const int edge = pool[rng->NextIndex(pool.size())];
    path.Extend(universe, transit, edge, at_stop);
    ++coverage->extensions;
    if (!at_end) ++coverage->begin_extensions;
    if (path.closed()) ++coverage->loop_closures;
    ExpectAgreesWithReference(ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void RunRandomWalks(const gen::Dataset& city, std::uint64_t seed) {
  const EdgeUniverse universe =
      EdgeUniverse::Build(city.road, city.transit, EdgeUniverseOptions{});
  ASSERT_GT(universe.num_new_edges(), 0);
  linalg::Rng rng(seed);
  WalkCoverage coverage;
  for (int walk = 0; walk < 400; ++walk) {
    SCOPED_TRACE("walk " + std::to_string(walk));
    RandomWalk(universe, city.transit, &rng, /*max_edges=*/12, &coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The walks must reach every rule they check.
  EXPECT_GT(coverage.extensions, 1000);
  EXPECT_GT(coverage.begin_extensions, 300);
  EXPECT_GT(coverage.loop_closures, 0);
  EXPECT_GT(coverage.road_overlap_rejections, 0);
  EXPECT_GT(coverage.stop_revisit_rejections, 0);
}

TEST(CandidatePathPropertyTest, RandomWalksOnMidtownMatchReference) {
  RunRandomWalks(gen::MakeMidtown(), /*seed=*/17);
}

TEST(CandidatePathPropertyTest, RandomWalksOnChicagoMatchReference) {
  RunRandomWalks(gen::MakeChicagoLike(0.12), /*seed=*/29);
}

}  // namespace
}  // namespace ctbus::core
