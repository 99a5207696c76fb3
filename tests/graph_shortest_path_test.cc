#include "graph/shortest_path.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "linalg/rng.h"

namespace ctbus::graph {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// 0 --1-- 1 --1-- 2
//  \______________/
//        5
Graph MakeDetourGraph() {
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddVertex({static_cast<double>(i), 0});
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(0, 2, 5.0);
  return g;
}

// w x h grid with unit edge lengths.
Graph MakeGrid(int w, int h) {
  Graph g;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      g.AddVertex({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int v = y * w + x;
      if (x + 1 < w) g.AddEdge(v, v + 1, 1.0);
      if (y + 1 < h) g.AddEdge(v, v + w, 1.0);
    }
  }
  return g;
}

TEST(ShortestPathTest, PrefersMultiHopOverLongDirect) {
  const Graph g = MakeDetourGraph();
  const auto tree = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 2.0);
  EXPECT_EQ(tree.parent_vertex[2], 1);
}

TEST(ShortestPathTest, SourceDistanceZeroNoParent) {
  const auto tree = Dijkstra(MakeDetourGraph(), 1);
  EXPECT_DOUBLE_EQ(tree.dist[1], 0.0);
  EXPECT_EQ(tree.parent_vertex[1], -1);
}

TEST(ShortestPathTest, UnreachableVertexIsInfinite) {
  Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({1, 0});
  g.AddVertex({2, 0});
  g.AddEdge(0, 1, 1.0);
  const auto tree = Dijkstra(g, 0);
  EXPECT_EQ(tree.dist[2], kInf);
  EXPECT_FALSE(ShortestPathBetween(g, 0, 2).has_value());
}

TEST(ShortestPathTest, PathExtractionOrdersVerticesAndEdges) {
  const Graph g = MakeDetourGraph();
  const auto path = ShortestPathBetween(g, 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->vertices, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(path->edges.size(), 2u);
  EXPECT_DOUBLE_EQ(path->length, 2.0);
  // Edge i joins vertices i and i+1.
  for (std::size_t i = 0; i < path->edges.size(); ++i) {
    const auto& e = g.edge(path->edges[i]);
    const int a = path->vertices[i];
    const int b = path->vertices[i + 1];
    EXPECT_TRUE((e.u == a && e.v == b) || (e.u == b && e.v == a));
  }
}

TEST(ShortestPathTest, PathToSelfIsTrivial) {
  const Graph g = MakeDetourGraph();
  const auto path = ShortestPathBetween(g, 1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->vertices, std::vector<int>{1});
  EXPECT_TRUE(path->edges.empty());
  EXPECT_DOUBLE_EQ(path->length, 0.0);
}

TEST(ShortestPathTest, GridManhattanDistance) {
  const Graph g = MakeGrid(6, 5);
  const auto tree = Dijkstra(g, 0);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) {
      EXPECT_DOUBLE_EQ(tree.dist[y * 6 + x], x + y);
    }
  }
}

TEST(ShortestPathTest, BoundedDijkstraStopsAtRadius) {
  const Graph g = MakeGrid(10, 10);
  const auto tree = DijkstraBounded(g, 0, 3.0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 3.0);            // on the boundary
  EXPECT_EQ(tree.dist[9 * 10 + 9], kInf);         // far corner untouched
}

TEST(ShortestPathTest, SearchStopsAtItsTargetsWithDijkstrasPaths) {
  // Unit edges tie everywhere, so a parent depends on the heap's tie order:
  // an early stop must not change it for a settled vertex.
  const Graph g = MakeGrid(12, 9);
  const int n = g.num_vertices();
  DijkstraSearch search(g);
  linalg::Rng rng(17);
  int stopped_early = 0;
  for (int run = 0; run < 40; ++run) {
    const int source = static_cast<int>(rng.NextIndex(n));
    std::vector<int> targets;
    for (int i = 0; i < 3; ++i) {
      targets.push_back(static_cast<int>(rng.NextIndex(n)));
    }
    search.Run(source, targets);
    const ShortestPathTree full = Dijkstra(g, source);
    for (const int t : targets) {
      EXPECT_EQ(search.tree().dist[t], full.dist[t]);
      const auto early = ExtractPath(search.tree(), source, t);
      const auto reference = ExtractPath(full, source, t);
      ASSERT_TRUE(early.has_value() && reference.has_value());
      EXPECT_EQ(early->vertices, reference->vertices);
      EXPECT_EQ(early->edges, reference->edges);
    }
    for (int v = 0; v < n; ++v) {
      if (search.tree().dist[v] == kInf) {
        ++stopped_early;
        break;
      }
    }
  }
  EXPECT_GT(stopped_early, 0);
}

TEST(ShortestPathTest, SearchForgetsAnUnreachableTarget) {
  // Two components: the detour triangle {0, 1, 2} and the path 3 - 4 - 5.
  Graph g = MakeDetourGraph();
  for (int i = 3; i < 6; ++i) g.AddVertex({static_cast<double>(i), 1});
  g.AddEdge(3, 4, 1.0);
  g.AddEdge(4, 5, 1.0);
  DijkstraSearch search(g);
  search.Run(0, {4, 2});
  EXPECT_EQ(search.tree().dist[2], 2.0);
  EXPECT_EQ(search.tree().dist[4], kInf);
  // A later run passes through 4 without counting it as a target.
  search.Run(3, {5});
  EXPECT_EQ(search.tree().dist[5], 2.0);
  EXPECT_EQ(search.tree().dist[0], kInf);
}

TEST(ShortestPathTest, BfsHopsOnGrid) {
  const Graph g = MakeGrid(4, 4);
  const auto hops = BfsHops(g, 0);
  EXPECT_EQ(hops[0], 0);
  EXPECT_EQ(hops[3], 3);
  EXPECT_EQ(hops[15], 6);
}

TEST(ShortestPathTest, BfsHopsUnreachableIsMinusOne) {
  Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({1, 0});
  const auto hops = BfsHops(g, 0);
  EXPECT_EQ(hops[1], -1);
}

TEST(ShortestPathTest, DijkstraMatchesBfsOnUnitWeights) {
  linalg::Rng rng(77);
  Graph g;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    g.AddVertex({rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
  }
  for (int i = 0; i < 400; ++i) {
    g.AddEdge(static_cast<int>(rng.NextIndex(n)),
              static_cast<int>(rng.NextIndex(n)), 1.0);
  }
  const auto tree = Dijkstra(g, 0);
  const auto hops = BfsHops(g, 0);
  for (int v = 0; v < n; ++v) {
    if (hops[v] < 0) {
      EXPECT_EQ(tree.dist[v], kInf);
    } else {
      EXPECT_DOUBLE_EQ(tree.dist[v], static_cast<double>(hops[v]));
    }
  }
}

TEST(ShortestPathTest, TriangleInequalityOverRandomGraph) {
  linalg::Rng rng(78);
  Graph g;
  const int n = 80;
  for (int i = 0; i < n; ++i) {
    g.AddVertex({rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
  }
  for (int i = 0; i < 240; ++i) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u != v && !g.EdgeBetween(u, v)) {
      g.AddEdge(u, v, Distance(g.position(u), g.position(v)));
    }
  }
  const auto from0 = Dijkstra(g, 0);
  const auto from1 = Dijkstra(g, 1);
  for (int v = 0; v < n; ++v) {
    if (from0.dist[v] == kInf || from0.dist[1] == kInf) continue;
    EXPECT_LE(from0.dist[v], from0.dist[1] + from1.dist[v] + 1e-9);
  }
}

}  // namespace
}  // namespace ctbus::graph
