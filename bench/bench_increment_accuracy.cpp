// Accuracy of the connectivity-increment route against dense-exact
// lambda. Samples a fixed-seed set of new universe edges and of 1-5-edge
// walks of new edges (the shape of a planned route) on ChicagoLike, and
// scores each route's lambda(G + P) - lambda(G) against the value from
// two full dense eigensolves:
//
//   local r=3        exact local trace increments on the radius-3 ball,
//                    telescoped along walks, anchored at the exact tr(e^A)
//                    (the kernel's own error) and at the default
//                    precompute estimator's tr_0 (the one anchor every
//                    planner reports Delta(e) and online increments by)
//
// Per route: max abs error, Spearman rank correlation, and the overlap of
// the top-k by value (k = 50 of the edges, 25 of the walks), plus the
// time per increment. Environment: CTBUS_SCALE (default 1.0; CI runs
// 0.5), CTBUS_BENCH_JSON_DIR.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "connectivity/local_increment.h"
#include "connectivity/natural_connectivity.h"
#include "core/edge_universe.h"
#include "core/options.h"
#include "gen/datasets.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"

namespace {

using ctbus::bench::Stopwatch;
using ctbus::linalg::SymmetricSparseMatrix;
using StopPairs = std::vector<std::pair<int, int>>;

constexpr int kEdgeSamples = 200;
constexpr int kWalksPerLength = 20;
constexpr int kMaxWalkLength = 5;
constexpr int kEdgeTopK = 50;
constexpr int kWalkTopK = 25;

SymmetricSparseMatrix WithPairs(const SymmetricSparseMatrix& a,
                                const StopPairs& pairs) {
  SymmetricSparseMatrix with = a;
  for (const auto& [u, v] : pairs) with.Set(u, v, 1.0);
  return with;
}

/// Ranks with ties averaged (1-based).
std::vector<double> Ranks(const std::vector<double>& values) {
  std::vector<int> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    for (std::size_t t = i; t <= j; ++t) ranks[order[t]] = 0.5 * (i + j) + 1;
    i = j + 1;
  }
  return ranks;
}

double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  const std::vector<double> rx = Ranks(x);
  const std::vector<double> ry = Ranks(y);
  const double mean = 0.5 * (rx.size() + 1);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mean) * (ry[i] - mean);
    sxx += (rx[i] - mean) * (rx[i] - mean);
    syy += (ry[i] - mean) * (ry[i] - mean);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

std::vector<int> TopK(const std::vector<double>& values, int k) {
  std::vector<int> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return values[a] > values[b]; });
  order.resize(std::min<std::size_t>(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

int TopKOverlap(const std::vector<double>& x, const std::vector<double>& y,
                int k) {
  const std::vector<int> a = TopK(x, k);
  const std::vector<int> b = TopK(y, k);
  std::vector<int> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return static_cast<int>(common.size());
}

/// Distinct new universe edges, a fixed-seed sample of `count`.
std::vector<StopPairs> SampleEdges(const ctbus::core::EdgeUniverse& universe,
                                   int count, ctbus::linalg::Rng* rng) {
  std::vector<int> ids;
  for (int e = 0; e < universe.num_edges(); ++e) {
    if (universe.edge(e).is_new) ids.push_back(e);
  }
  for (int i = static_cast<int>(ids.size()) - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng->NextIndex(i + 1)]);
  }
  ids.resize(std::min<std::size_t>(count, ids.size()));
  std::vector<StopPairs> samples;
  for (int e : ids) {
    samples.push_back({{universe.edge(e).u, universe.edge(e).v}});
  }
  return samples;
}

/// Walks of exactly `length` new universe edges through distinct stops.
std::vector<StopPairs> SampleWalks(const ctbus::core::EdgeUniverse& universe,
                                   int length, int count,
                                   ctbus::linalg::Rng* rng) {
  std::vector<StopPairs> walks;
  for (int attempt = 0;
       static_cast<int>(walks.size()) < count && attempt < 100 * count;
       ++attempt) {
    const int first = static_cast<int>(rng->NextIndex(universe.num_edges()));
    if (!universe.edge(first).is_new) continue;
    StopPairs walk = {{universe.edge(first).u, universe.edge(first).v}};
    std::vector<int> visited = {walk[0].first, walk[0].second};
    int at = walk[0].second;
    while (static_cast<int>(walk.size()) < length) {
      std::vector<int> next;
      for (int e : universe.IncidentEdges(at)) {
        const ctbus::core::PlannableEdge& edge = universe.edge(e);
        const int other = edge.u == at ? edge.v : edge.u;
        if (edge.is_new && std::find(visited.begin(), visited.end(),
                                     other) == visited.end()) {
          next.push_back(other);
        }
      }
      if (next.empty()) break;
      const int to = next[rng->NextIndex(next.size())];
      walk.emplace_back(at, to);
      visited.push_back(to);
      at = to;
    }
    if (static_cast<int>(walk.size()) == length) walks.push_back(walk);
  }
  return walks;
}

struct Route {
  std::string key;
  std::string label;
  std::function<double(const StopPairs&)> increment;
};

struct Score {
  double max_abs_error = 0.0;
  double spearman = 0.0;
  int top_overlap = 0;
  double ms_per_increment = 0.0;
};

Score ScoreRoute(const Route& route, const std::vector<StopPairs>& samples,
                 const std::vector<double>& exact, int top_k) {
  std::vector<double> values;
  values.reserve(samples.size());
  const Stopwatch timer;
  for (const StopPairs& sample : samples) {
    values.push_back(route.increment(sample));
  }
  Score score;
  score.ms_per_increment = 1e3 * timer.Seconds() / samples.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    score.max_abs_error =
        std::max(score.max_abs_error, std::abs(values[i] - exact[i]));
  }
  score.spearman = Spearman(values, exact);
  score.top_overlap = TopKOverlap(values, exact, top_k);
  return score;
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "connectivity increment accuracy vs dense-exact lambda",
      "Section 5.1: Hutchinson's guarantee is relative to tr(e^A), while "
      "an edge's increment is ~1e-3 of it");
  const double scale = ctbus::bench::GetScale();
  const ctbus::gen::Dataset city = ctbus::gen::MakeChicagoLike(scale);
  ctbus::bench::PrintDataset(city);
  ctbus::bench::BenchReport report("increment_accuracy");
  report.AddDataset(city);

  const ctbus::core::EdgeUniverse universe = ctbus::core::EdgeUniverse::Build(
      city.road, city.transit, ctbus::core::EdgeUniverseOptions{});
  const SymmetricSparseMatrix adjacency = city.transit.AdjacencyMatrix();
  const int n = adjacency.dim();

  ctbus::linalg::Rng rng(7);
  const std::vector<StopPairs> edges = SampleEdges(universe, kEdgeSamples,
                                                   &rng);
  std::vector<StopPairs> walks;
  for (int length = 1; length <= kMaxWalkLength; ++length) {
    const std::vector<StopPairs> batch =
        SampleWalks(universe, length, kWalksPerLength, &rng);
    walks.insert(walks.end(), batch.begin(), batch.end());
  }
  std::printf("samples: %zu new edges, %zu walks of 1-%d new edges\n",
              edges.size(), walks.size(), kMaxWalkLength);

  // Dense-exact reference: lambda(G + P) - lambda(G), both by full
  // eigensolves.
  const Stopwatch exact_timer;
  const double exact_lambda =
      ctbus::connectivity::NaturalConnectivityExact(adjacency);
  const double exact_trace = n * std::exp(exact_lambda);
  const auto exact_increments = [&](const std::vector<StopPairs>& samples) {
    std::vector<double> values;
    for (const StopPairs& sample : samples) {
      values.push_back(ctbus::connectivity::NaturalConnectivityExact(
                           WithPairs(adjacency, sample)) -
                       exact_lambda);
    }
    return values;
  };
  const std::vector<double> exact_edges = exact_increments(edges);
  const std::vector<double> exact_walks = exact_increments(walks);
  const std::size_t solves = 1 + edges.size() + walks.size();
  std::printf("dense-exact reference: %zu eigensolves of %dx%d, %.2f s\n\n",
              solves, n, n, exact_timer.Seconds());

  std::vector<Route> routes;
  const ctbus::connectivity::ConnectivityEstimator precompute(
      n, ctbus::core::CtBusOptions{}.precompute_estimator);
  const double anchor_trace = precompute.EstimateTraceExp(adjacency);
  const auto local_trace = [&adjacency](const StopPairs& pairs) {
    StopPairs staged;
    double total = 0.0;
    for (const auto& [u, v] : pairs) {
      total += ctbus::connectivity::LocalTraceIncrement(adjacency, staged, u,
                                                        v);
      staged.emplace_back(u, v);
    }
    return total;
  };
  routes.push_back({"local_r3", "local r=3 (exact anchor)",
                    [=](const StopPairs& pairs) {
                      return std::log1p(local_trace(pairs) / exact_trace);
                    }});
  routes.push_back({"local_r3_precompute_anchor",
                    "local r=3 (precompute anchor)",
                    [=](const StopPairs& pairs) {
                      return std::log1p(local_trace(pairs) / anchor_trace);
                    }});
  std::printf(
      "radius %d; precompute anchor tr(e^A) %.6g vs exact %.6g (%+.3f%%)\n\n",
      ctbus::connectivity::kLocalIncrementRadius, anchor_trace, exact_trace,
      100.0 * (anchor_trace / exact_trace - 1.0));

  std::printf("%-30s | %-30s | %-30s\n", "", "new edges", "walks of 1-5 edges");
  std::printf("%-30s | %9s %8s %5s %5s | %9s %8s %5s %5s\n", "route",
              "max err", "spearman", "top50", "ms", "max err", "spearman",
              "top25", "ms");
  for (const Route& route : routes) {
    const Score edge = ScoreRoute(route, edges, exact_edges, kEdgeTopK);
    const Score walk = ScoreRoute(route, walks, exact_walks, kWalkTopK);
    std::printf("%-30s | %9.2e %8.4f %5d %5.2f | %9.2e %8.4f %5d %5.2f\n",
                route.label.c_str(), edge.max_abs_error, edge.spearman,
                edge.top_overlap, edge.ms_per_increment, walk.max_abs_error,
                walk.spearman, walk.top_overlap, walk.ms_per_increment);
    for (const auto& [set, score, k] :
         {std::make_tuple("edge", edge, kEdgeTopK),
          std::make_tuple("walk", walk, kWalkTopK)}) {
      const std::string prefix = std::string(set) + "_" + route.key + "_";
      report.AddMetric(prefix + "max_abs_error", score.max_abs_error,
                       "lower");
      report.AddMetric(prefix + "spearman", score.spearman, "higher");
      report.AddMetric(prefix + "top" + std::to_string(k) + "_overlap",
                       score.top_overlap, "higher");
      report.AddMetric(prefix + "ms_per_increment", score.ms_per_increment,
                       "lower");
    }
  }
  // Pins the sample set and the reference: a drift here means the
  // fixture, the sampler or the dense eigensolver changed.
  report.AddChecksum("exact_edge_increment_sum",
                     std::accumulate(exact_edges.begin(), exact_edges.end(),
                                     0.0));
  report.AddChecksum("exact_walk_increment_sum",
                     std::accumulate(exact_walks.begin(), exact_walks.end(),
                                     0.0));
  report.WriteIfRequested();
  return 0;
}
