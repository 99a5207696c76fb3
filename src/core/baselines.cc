#include "core/baselines.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <utility>

#include "connectivity/local_increment.h"
#include "graph/geo.h"
#include "graph/union_find.h"

namespace ctbus::core {

PlanResult RunVkTsp(const PlanningContext* context) {
  // The baseline is Algorithm 1 with w = 1 and new edges only
  // (Section 7.2.1). A sibling context is built over the caller's shared
  // base (same universe, Delta(e), ranked lists L_d/L_lambda and base
  // lambda), so only the normalization constants are rebuilt, and its
  // search builds the one L_e the request reads, under w = 1. Neither
  // context holds an L_e of its own.
  CtBusOptions options = context->options();
  options.w = 1.0;
  options.new_edges_only = true;
  PlanningContext baseline_context =
      PlanningContext::Build(context->base(), options);
  PlanResult result = RunEta(&baseline_context, SearchMode::kPrecomputed);
  // Score the baseline's route under the caller's objective (the paper's
  // Table 6 reports all methods under the same weighted objective).
  if (result.found) {
    result.objective =
        context->Objective(result.demand, result.connectivity_increment);
  }
  return result;
}

ConnectivityFirstResult RunConnectivityFirst(const PlanningContext* context,
                                             int l) {
  assert(l >= 1);
  const EdgeUniverse& universe = context->universe();
  ConnectivityFirstResult result;

  // The exact greedy of [22] over every new edge: each round takes the
  // candidate with the largest Delta tr(e | picks), ties to the lowest
  // universe id. Round 1's gains are the precompute's Delta tr(e). A pick
  // only moves the gains of candidates with an endpoint within
  // kLocalIncrementRadius hops of it (connectivity::StopsNear on the
  // adjacency plus the picks); every other candidate keeps its ball and
  // induced submatrix, so its cached gain is still exact and only the near
  // ones are re-solved.
  std::vector<double> gain = context->SharePrecompute()->trace_increments;
  std::vector<bool> candidate(universe.num_edges());
  for (int e = 0; e < universe.num_edges(); ++e) {
    candidate[e] = universe.edge(e).is_new;
  }
  std::vector<std::pair<int, int>> picked_pairs;
  double trace_increment = 0.0;
  for (int round = 0; round < l; ++round) {
    int best = -1;
    for (int e = 0; e < universe.num_edges(); ++e) {
      if (candidate[e] && (best < 0 || gain[e] > gain[best])) best = e;
    }
    if (best < 0) break;
    candidate[best] = false;
    trace_increment += gain[best];
    result.edges.push_back(best);
    const PlannableEdge& pick = universe.edge(best);
    picked_pairs.emplace_back(pick.u, pick.v);
    if (round + 1 == l) break;
    const std::vector<char> near = connectivity::StopsNear(
        context->base()->adjacency(), picked_pairs, {pick.u, pick.v});
    for (int e = 0; e < universe.num_edges(); ++e) {
      const PlannableEdge& edge = universe.edge(e);
      if (candidate[e] && (near[edge.u] || near[edge.v])) {
        gain[e] = context->EdgeTraceIncrement(result.edges, e);
      }
    }
  }
  if (result.edges.empty()) return result;  // no candidate edges at all
  // The gains telescope along the picks in pick order, so this is
  // OnlineConnectivityIncrement(result.edges) bit for bit.
  result.connectivity_increment =
      context->ConnectivityFromTrace(trace_increment);

  // How route-like is the chosen edge set? Count components among the
  // chosen edges (sharing a stop joins them), find the largest per-stop
  // multiplicity (a path needs <= 2), and measure the total straight-line
  // gap of a nearest-neighbor tour over the fragments.
  const int n = static_cast<int>(result.edges.size());
  graph::UnionFind uf(n);
  std::unordered_map<int, int> stop_degree;
  for (int i = 0; i < n; ++i) {
    const auto& a = universe.edge(result.edges[i]);
    ++stop_degree[a.u];
    ++stop_degree[a.v];
    for (int j = i + 1; j < n; ++j) {
      const auto& b = universe.edge(result.edges[j]);
      if (a.u == b.u || a.u == b.v || a.v == b.u || a.v == b.v) {
        uf.Union(i, j);
      }
    }
  }
  result.num_components = uf.num_sets();
  for (const auto& [stop, degree] : stop_degree) {
    result.max_stop_degree = std::max(result.max_stop_degree, degree);
  }
  result.forms_simple_path =
      result.num_components == 1 && result.max_stop_degree <= 2;

  // Nearest-neighbor tour over edge midpoints approximates the stitch cost.
  std::vector<graph::Point> midpoints;
  for (int e : result.edges) {
    const auto& edge = universe.edge(e);
    const auto& pu = context->transit().stop(edge.u).position;
    const auto& pv = context->transit().stop(edge.v).position;
    midpoints.push_back({(pu.x + pv.x) / 2, (pu.y + pv.y) / 2});
  }
  std::vector<bool> visited(midpoints.size(), false);
  int current = 0;
  visited[0] = true;
  for (std::size_t step = 1; step < midpoints.size(); ++step) {
    int next = -1;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < midpoints.size(); ++j) {
      if (visited[j]) continue;
      const double d = graph::Distance(midpoints[current], midpoints[j]);
      if (d < best) {
        best = d;
        next = static_cast<int>(j);
      }
    }
    result.stitch_gap_meters += best;
    visited[next] = true;
    current = next;
  }
  return result;
}

}  // namespace ctbus::core
