// Exact local trace increments (connectivity/local_increment.h) against
// dense-exact tr(e^{A + P}) - tr(e^A), on the midtown fixture and on a
// seeded random sparse graph; plus the kernel's zero cases, the locality
// lemma (staged edges beyond the radius change nothing), Figure 1
// monotonicity of every telescoped term, independence from the base
// adjacency's row order and from the order and orientation of the staged
// pairs (what the term memo's key rests on), and thread-safety of the context-level
// OnlineConnectivityIncrement built on it.
#include "connectivity/local_increment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "core/edge_universe.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "tests/matrix_builders.h"

namespace ctbus::connectivity {
namespace {

using StopPairs = std::vector<std::pair<int, int>>;

double ExactTraceExp(const linalg::SymmetricSparseMatrix& a) {
  return a.dim() * std::exp(NaturalConnectivityExact(a));
}

/// tr(e^{A + P}) - tr(e^A) by two full dense eigensolves.
double ExactTraceIncrement(const linalg::SymmetricSparseMatrix& a,
                           const StopPairs& pairs) {
  return ExactTraceExp(testutil::WithEdges(a, pairs)) - ExactTraceExp(a);
}

/// `count` distinct stop pairs absent from `a`, drawn from a fixed seed.
StopPairs SampleNonEdges(const linalg::SymmetricSparseMatrix& a, int count,
                         std::uint64_t seed) {
  linalg::Rng rng(seed);
  StopPairs pairs;
  while (static_cast<int>(pairs.size()) < count) {
    const int u = static_cast<int>(rng.NextIndex(a.dim()));
    const int v = static_cast<int>(rng.NextIndex(a.dim()));
    if (u == v || a.Contains(u, v)) continue;
    const bool seen = std::any_of(pairs.begin(), pairs.end(), [&](auto p) {
      return (p.first == u && p.second == v) ||
             (p.first == v && p.second == u);
    });
    if (!seen) pairs.emplace_back(u, v);
  }
  return pairs;
}

/// A walk of up to `length` new edges from universe edge `first`, each
/// step a random new candidate edge to an unvisited stop: the shape of a
/// planned route.
StopPairs SampleUniverseWalk(const core::EdgeUniverse& universe, int first,
                             int length, linalg::Rng* rng) {
  const core::PlannableEdge& seed = universe.edge(first);
  StopPairs walk = {{seed.u, seed.v}};
  std::vector<int> visited = {seed.u, seed.v};
  int at = seed.v;
  while (static_cast<int>(walk.size()) < length) {
    std::vector<int> next;
    for (int e : universe.IncidentEdges(at)) {
      const core::PlannableEdge& edge = universe.edge(e);
      const int other = edge.u == at ? edge.v : edge.u;
      if (edge.is_new &&
          std::find(visited.begin(), visited.end(), other) == visited.end()) {
        next.push_back(other);
      }
    }
    if (next.empty()) break;
    const int to = next[rng->NextIndex(next.size())];
    walk.emplace_back(at, to);
    visited.push_back(to);
    at = to;
  }
  return walk;
}

/// A walk of `length` new edges over arbitrary graph `a`: each step goes
/// two hops along `a` when that reaches a fresh stop not adjacent to the
/// current one, and jumps to a random fresh stop otherwise.
StopPairs SampleNewEdgeWalk(const linalg::SymmetricSparseMatrix& a,
                            int length, std::uint64_t seed) {
  linalg::Rng rng(seed);
  int at = static_cast<int>(rng.NextIndex(a.dim()));
  StopPairs walk;
  std::vector<int> visited = {at};
  const auto fresh = [&](int stop) {
    return stop != at && !a.Contains(at, stop) &&
           std::find(visited.begin(), visited.end(), stop) == visited.end();
  };
  while (static_cast<int>(walk.size()) < length) {
    int next = at;
    for (int hop = 0; hop < 2 && a.RowDegree(next) > 0; ++hop) {
      next = a.Row(next)[rng.NextIndex(a.RowDegree(next))].col;
    }
    if (!fresh(next)) next = static_cast<int>(rng.NextIndex(a.dim()));
    if (!fresh(next)) continue;
    walk.emplace_back(at, next);
    visited.push_back(next);
    at = next;
  }
  return walk;
}

/// Telescoped Delta tr of `pairs`, each term on A plus the earlier pairs.
std::vector<double> TelescopedTerms(const linalg::SymmetricSparseMatrix& a,
                                    const StopPairs& pairs) {
  std::vector<double> terms;
  StopPairs staged;
  for (const auto& [u, v] : pairs) {
    terms.push_back(LocalTraceIncrement(a, staged, u, v));
    staged.emplace_back(u, v);
  }
  return terms;
}

/// Sparse random graph shaped like a transit network: `lines` random
/// routes of `stops_per_line` stops, each stepping to a stop at most
/// `reach` indices away, so stops close in index are close in the graph.
linalg::SymmetricSparseMatrix RandomTransitGraph(int n, int lines,
                                                 int stops_per_line,
                                                 int reach,
                                                 std::uint64_t seed) {
  linalg::Rng rng(seed);
  std::set<std::pair<int, int>> pairs;
  for (int line = 0; line < lines; ++line) {
    int at = static_cast<int>(rng.NextIndex(n));
    for (int s = 1; s < stops_per_line; ++s) {
      const int next =
          (at + 1 + static_cast<int>(rng.NextIndex(reach))) % n;
      pairs.insert({std::min(at, next), std::max(at, next)});
      at = next;
    }
  }
  return testutil::FromPairs(n, {pairs.begin(), pairs.end()});
}

// Truncating to the ball only drops closed walks (all of positive weight
// for a nonnegative adjacency), so the local value never exceeds the
// exact one. What it drops are walks of length >= 2r + 3 = 9, whose
// weight does not shrink with the network, so relative to tr(e^A) these
// small test graphs are the hard case. Measured maxima at radius 3: single
// edges 1.3e-6 of tr(e^A) on midtown (pairs that close a 9-stop cycle) and
// 2.5e-6 on the random graph; telescoped walks of candidate edges 1.1e-5
// on midtown, where a 5-edge walk adds a third to tr(e^A). Radius 2 misses
// the walk bound by 60x.
constexpr double kSingleEdgeTolerance = 5e-6;
constexpr double kWalkTolerance = 2e-5;

void ExpectWithin(double local, double exact, double tolerance,
                  double rounding) {
  EXPECT_LE(local, exact + rounding);
  EXPECT_GE(local, exact - tolerance);
}

/// Checks single-edge increments and telescoped walk increments against
/// dense-exact values.
void ExpectMatchesExact(const linalg::SymmetricSparseMatrix& a,
                        const StopPairs& edges,
                        const std::vector<StopPairs>& walks) {
  const double trace = ExactTraceExp(a);
  const double rounding = 1e-12 * trace;
  for (const auto& [u, v] : edges) {
    SCOPED_TRACE(::testing::Message() << "edge (" << u << ", " << v << ")");
    ExpectWithin(LocalTraceIncrement(a, {}, u, v),
                 ExactTraceIncrement(a, {{u, v}}),
                 kSingleEdgeTolerance * trace, rounding);
  }
  for (const StopPairs& walk : walks) {
    SCOPED_TRACE(::testing::Message() << "walk of " << walk.size()
                                      << " edges from (" << walk[0].first
                                      << ", " << walk[0].second << ")");
    double total = 0.0;
    for (double term : TelescopedTerms(a, walk)) total += term;
    ExpectWithin(total, ExactTraceIncrement(a, walk), kWalkTolerance * trace,
                 rounding);
  }
}

TEST(LocalTraceIncrementTest, MatchesDenseExactOnMidtown) {
  const gen::Dataset midtown = gen::MakeMidtown();
  const core::EdgeUniverse universe =
      core::EdgeUniverse::Build(midtown.road, midtown.transit, {});
  StopPairs edges;
  std::vector<StopPairs> walks;
  linalg::Rng rng(17);
  for (int e = 0; e < universe.num_edges(); ++e) {
    const core::PlannableEdge& edge = universe.edge(e);
    if (!edge.is_new) continue;
    edges.emplace_back(edge.u, edge.v);
    walks.push_back(SampleUniverseWalk(universe, e, 1 + e % 5, &rng));
  }
  ASSERT_GE(edges.size(), 20u);
  const StopPairs arbitrary =
      SampleNonEdges(midtown.transit.AdjacencyMatrix(), 30, /*seed=*/19);
  edges.insert(edges.end(), arbitrary.begin(), arbitrary.end());
  ExpectMatchesExact(midtown.transit.AdjacencyMatrix(), edges, walks);
}

TEST(LocalTraceIncrementTest, MatchesDenseExactOnRandomGraph) {
  const linalg::SymmetricSparseMatrix a = RandomTransitGraph(
      /*n=*/160, /*lines=*/14, /*stops_per_line=*/12, /*reach=*/6,
      /*seed=*/23);
  std::vector<StopPairs> walks;
  for (int length = 1; length <= 5; ++length) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      walks.push_back(SampleNewEdgeWalk(a, length, 31 * length + seed));
    }
  }
  ExpectMatchesExact(a, SampleNonEdges(a, 40, /*seed=*/29), walks);
}

TEST(LocalTraceIncrementTest, ExistingOrStagedEdgeAddsNothing) {
  const linalg::SymmetricSparseMatrix a =
      RandomTransitGraph(/*n=*/60, /*lines=*/6, /*stops_per_line=*/10,
                         /*reach=*/4, /*seed=*/3);
  int u0 = 0;
  while (a.RowDegree(u0) == 0) ++u0;
  const int v0 = a.Row(u0)[0].col;
  EXPECT_EQ(LocalTraceIncrement(a, {}, u0, v0), 0.0);  // existing edge
  EXPECT_EQ(LocalTraceIncrement(a, {}, v0, u0), 0.0);
  const StopPairs staged = SampleNonEdges(a, 3, /*seed=*/5);
  for (const auto& [u, v] : staged) {
    EXPECT_EQ(LocalTraceIncrement(a, staged, u, v), 0.0);
    EXPECT_EQ(LocalTraceIncrement(a, staged, v, u), 0.0);
    EXPECT_GT(LocalTraceIncrement(a, {}, u, v), 0.0);
  }
}

/// The locality lemma behind the warm start and the connectivity-first
/// greedy: staging edges whose endpoints all lie beyond StopsNear's radius
/// around {u, v} leaves the increment of (u, v) unchanged to the bit, and
/// staging one edge inside the radius moves it.
void ExpectFarStagingChangesNothing(const linalg::SymmetricSparseMatrix& a,
                                    std::uint64_t seed) {
  const StopPairs candidates = SampleNonEdges(a, 80, seed);
  int checked = 0;
  for (const auto& [u, v] : SampleNonEdges(a, 10, seed + 1)) {
    const std::vector<char> near = StopsNear(a, {}, {u, v});
    StopPairs far;
    for (const auto& [x, y] : candidates) {
      if (!near[x] && !near[y]) far.emplace_back(x, y);
    }
    int w = 0;
    while (w < a.dim() &&
           (!near[w] || w == u || w == v || a.Contains(u, w))) {
      ++w;
    }
    if (far.empty() || w == a.dim()) continue;
    ++checked;
    SCOPED_TRACE(::testing::Message() << "edge (" << u << ", " << v << "), "
                                      << far.size() << " far staged edges");
    const double alone = LocalTraceIncrement(a, {}, u, v);
    EXPECT_EQ(LocalTraceIncrement(a, far, u, v), alone);
    StopPairs with_near = far;
    with_near.emplace_back(u, w);
    EXPECT_NE(LocalTraceIncrement(a, with_near, u, v), alone);
  }
  EXPECT_GE(checked, 3);
}

TEST(LocalTraceIncrementTest, StagedEdgesBeyondTheRadiusChangeNothing) {
  ExpectFarStagingChangesNothing(
      RandomTransitGraph(/*n=*/160, /*lines=*/14, /*stops_per_line=*/12,
                         /*reach=*/6, /*seed=*/59),
      /*seed=*/61);
  ExpectFarStagingChangesNothing(
      gen::MakeMidtown().transit.AdjacencyMatrix(), /*seed=*/67);
}

TEST(LocalTraceIncrementTest, EveryTelescopedTermIsPositive) {
  // Figure 1: adding an edge strictly increases tr(e^A), also on a network
  // that already holds the path's earlier edges.
  const gen::Dataset midtown = gen::MakeMidtown();
  const linalg::SymmetricSparseMatrix a = midtown.transit.AdjacencyMatrix();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (double term : TelescopedTerms(a, SampleNewEdgeWalk(a, 5, seed))) {
      EXPECT_GT(term, 0.0) << "seed " << seed;
    }
  }
}

TEST(LocalTraceIncrementTest, IndependentOfRowInsertionOrder) {
  const linalg::SymmetricSparseMatrix a =
      RandomTransitGraph(/*n=*/120, /*lines=*/10, /*stops_per_line=*/12,
                         /*reach=*/6, /*seed=*/41);
  StopPairs edges;
  for (int u = 0; u < a.dim(); ++u) {
    for (const auto& entry : a.Row(u)) {
      if (u < entry.col) edges.emplace_back(u, entry.col);
    }
  }
  // Same edge set, listed in a shuffled order with flipped endpoints.
  linalg::Rng rng(43);
  for (int i = static_cast<int>(edges.size()) - 1; i > 0; --i) {
    std::swap(edges[i], edges[rng.NextIndex(i + 1)]);
  }
  for (auto& [u, v] : edges) std::swap(u, v);
  const linalg::SymmetricSparseMatrix permuted =
      testutil::FromPairs(a.dim(), edges);

  const StopPairs walk = SampleNewEdgeWalk(a, 5, /*seed=*/47);
  EXPECT_EQ(TelescopedTerms(a, walk), TelescopedTerms(permuted, walk));
  for (const auto& [u, v] : SampleNonEdges(a, 10, /*seed=*/53)) {
    EXPECT_EQ(LocalTraceIncrement(a, walk, u, v),
              LocalTraceIncrement(permuted, walk, u, v));
  }
}

/// The term memo's key (core::TermMemo::MakeKey) sorts the staged pairs
/// and stores each, and the candidate, as (min, max). That is sound only if
/// the kernel reads `staged` as a set of unordered pairs and is symmetric
/// in (u, v): every order and orientation of a staged set must give the
/// same bits. Staged sets are 3-4 edge prefixes of universe walks, so they
/// lie inside the candidate's ball and do move its term.
void ExpectStagedOrderAndOrientationChangeNothing(const gen::Dataset& city,
                                                  std::uint64_t seed) {
  const core::EdgeUniverse universe =
      core::EdgeUniverse::Build(city.road, city.transit, {});
  const linalg::SymmetricSparseMatrix a = city.transit.AdjacencyMatrix();
  linalg::Rng rng(seed);
  int checked = 0;
  for (int e = 0; e < universe.num_edges() && checked < 6; ++e) {
    if (!universe.edge(e).is_new || rng.NextIndex(8) != 0) continue;
    const int staged_size = 3 + checked % 2;
    const StopPairs walk =
        SampleUniverseWalk(universe, e, staged_size + 1, &rng);
    if (static_cast<int>(walk.size()) != staged_size + 1) continue;
    ++checked;
    StopPairs staged(walk.begin(), walk.end() - 1);
    const auto [u, v] = walk.back();
    SCOPED_TRACE(::testing::Message() << staged.size() << " staged, edge ("
                                      << u << ", " << v << ")");
    const double reference = LocalTraceIncrement(a, staged, u, v);
    EXPECT_NE(reference, LocalTraceIncrement(a, {}, u, v));
    std::sort(staged.begin(), staged.end());
    int orders = 0;
    do {
      for (int flips = 0; flips < (2 << staged.size()); ++flips) {
        StopPairs oriented = staged;
        for (std::size_t i = 0; i < oriented.size(); ++i) {
          if (flips & (1 << i)) {
            std::swap(oriented[i].first, oriented[i].second);
          }
        }
        const bool flip_edge = flips & (1 << staged.size());
        const double term = flip_edge ? LocalTraceIncrement(a, oriented, v, u)
                                      : LocalTraceIncrement(a, oriented, u, v);
        ASSERT_EQ(term, reference) << "order " << orders << ", flips "
                                   << flips;
      }
      ++orders;
    } while (std::next_permutation(staged.begin(), staged.end()));
    EXPECT_EQ(orders, staged_size == 3 ? 6 : 24);
  }
  EXPECT_EQ(checked, 6);
}

TEST(LocalTraceIncrementTest, StagedOrderAndOrientationChangeNothing) {
  ExpectStagedOrderAndOrientationChangeNothing(gen::MakeMidtown(),
                                               /*seed=*/71);
  ExpectStagedOrderAndOrientationChangeNothing(gen::MakeChicagoLike(0.5),
                                               /*seed=*/73);
}

TEST(LocalTraceIncrementTest, ConcurrentContextCallsMatchSerialBits) {
  const gen::Dataset midtown = gen::MakeMidtown();
  core::CtBusOptions options;
  options.k = 6;
  options.precompute_estimator = {/*probes=*/4, /*lanczos_steps=*/4,
                                  /*seed=*/3};
  const core::PlanningContext ctx = core::PlanningContext::Build(
      midtown.road, midtown.transit, options);
  // Routes of 1-5 consecutive new universe edges.
  std::vector<std::vector<int>> routes;
  std::vector<int> new_edges;
  for (int e = 0; e < ctx.universe().num_edges(); ++e) {
    if (ctx.universe().edge(e).is_new) new_edges.push_back(e);
  }
  ASSERT_GE(new_edges.size(), 20u);
  for (int r = 0; r < 16; ++r) {
    const int length = 1 + r % 5;
    routes.emplace_back(new_edges.begin() + r,
                        new_edges.begin() + r + length);
  }
  std::vector<double> serial;
  for (const auto& route : routes) {
    serial.push_back(ctx.OnlineConnectivityIncrement(route));
    EXPECT_GT(serial.back(), 0.0);
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 3; ++pass) {
        concurrent[t].clear();
        for (const auto& route : routes) {
          concurrent[t].push_back(ctx.OnlineConnectivityIncrement(route));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace ctbus::connectivity
