#include "core/planning_context.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "connectivity/bounds.h"
#include "connectivity/local_increment.h"
#include "connectivity/natural_connectivity.h"
#include "core/timing.h"
#include "linalg/parallel_for.h"

namespace ctbus::core {

namespace {

/// Stop pairs of the path's new edges, in path order: the overlay the local
/// kernel stages on the base adjacency.
std::vector<std::pair<int, int>> NewStopPairs(
    const EdgeUniverse& universe, const std::vector<int>& path_edges) {
  std::vector<std::pair<int, int>> pairs;
  for (int e : path_edges) {
    const PlannableEdge& edge = universe.edge(e);
    if (edge.is_new) pairs.emplace_back(edge.u, edge.v);
  }
  return pairs;
}

/// Universe ids of every candidate (is_new) edge, in id order.
std::vector<int> NewEdgeIds(const EdgeUniverse& universe) {
  std::vector<int> ids;
  ids.reserve(universe.num_new_edges());
  for (int e = 0; e < universe.num_edges(); ++e) {
    if (universe.edge(e).is_new) ids.push_back(e);
  }
  return ids;
}

/// Solves Delta tr(e) for the universe edges listed in `todo` on the
/// shared adjacency, sharded over options.precompute_threads workers, then
/// anchors the whole table: tr_0 from the precompute estimator, and
/// Delta(e) via Precompute::FillIncrements. Each local increment is a pure
/// function of its edge's ball, so the result is bit-identical to a serial
/// run.
void SolveAndAnchor(const linalg::SymmetricSparseMatrix& adjacency,
                    const CtBusOptions& options, const std::vector<int>& todo,
                    Precompute* pre) {
  const int threads =
      std::max(1, std::min(linalg::ResolveThreadCount(
                                   options.precompute_threads),
                               static_cast<int>(todo.size())));
  const std::vector<std::pair<int, int>> none;
  linalg::ParallelFor(
      static_cast<int>(todo.size()), threads,
      [&](int /*shard*/, int begin, int end) {
        for (int i = begin; i < end; ++i) {
          const PlannableEdge& edge = pre->universe.edge(todo[i]);
          pre->trace_increments[todo[i]] =
              connectivity::LocalTraceIncrement(adjacency, none, edge.u,
                                                edge.v);
        }
      });
  pre->stats.num_increments_recomputed = static_cast<int>(todo.size());
  pre->stats.threads_used = threads;
  const connectivity::ConnectivityEstimator estimator(
      adjacency.dim(), options.precompute_estimator);
  pre->base_trace = estimator.EstimateTraceExp(adjacency);
  pre->FillIncrements();
}

}  // namespace

double SpectralRadiusCap(const linalg::SymmetricSparseMatrix& adjacency) {
  // Power iteration of (|A| + I) from the all-ones vector: deterministic,
  // and the shift keeps every iterate strictly positive and makes the
  // iteration converge on bipartite components too. Any x > 0 certifies
  // lambda_i(A) <= rho(|A|) <= max_u (|A| x)_u / x_u (Collatz-Wielandt). In
  // exact arithmetic that maximum never increases along the iteration; the
  // smallest one seen is kept.
  constexpr int kMaxIterations = 300;
  // Stop once the cap is within this relative distance of the Rayleigh
  // quotient x^T |A| x / x^T x <= rho(|A|): the cap cannot get much tighter.
  constexpr double kConvergence = 1e-9;
  // 2^-500 floors x after each renormalization, so an entry that decays
  // fastest (an isolated stop's) stays a normal, strictly positive number
  // and never turns a ratio into 0 / 0.
  const double min_entry = std::ldexp(1.0, -500);
  const int n = adjacency.dim();
  int max_degree = 0;
  for (int u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, adjacency.RowDegree(u));
  }
  std::vector<double> x(n, 1.0);
  std::vector<double> y(n);
  double cap = std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    double ratio = 0.0;
    double xy = 0.0;
    double xx = 0.0;
    for (int u = 0; u < n; ++u) {
      double sum = 0.0;
      for (const auto& entry : adjacency.Row(u)) {
        sum += std::abs(entry.value) * x[entry.col];
      }
      y[u] = sum;
      ratio = std::max(ratio, sum / x[u]);
      xy += x[u] * sum;
      xx += x[u] * x[u];
    }
    cap = std::min(cap, ratio);
    const double rayleigh = xx > 0.0 ? xy / xx : 0.0;
    if (cap - rayleigh <= kConvergence * cap) break;
    double top = 0.0;
    for (int u = 0; u < n; ++u) {
      y[u] += x[u];
      top = std::max(top, y[u]);
    }
    const double scale = 1.0 / top;
    for (int u = 0; u < n; ++u) x[u] = std::max(y[u] * scale, min_entry);
  }
  // Round outward. A row's sum of at most max_degree nonnegative products
  // and the division by x_u carry a relative error below
  // (max_degree + 1) * DBL_EPSILON / 2; the margin covers it twice over,
  // and nextafter covers the rounding of the product itself.
  const double margin = (max_degree + 2) * DBL_EPSILON;
  return std::nextafter(cap * (1.0 + margin),
                        std::numeric_limits<double>::infinity());
}

double Precompute::ConnectivityFromTrace(double trace_increment) const {
  return std::max(0.0, std::log1p(trace_increment / base_trace));
}

void Precompute::FillIncrements() {
  increments.resize(trace_increments.size());
  for (std::size_t e = 0; e < trace_increments.size(); ++e) {
    increments[e] = ConnectivityFromTrace(trace_increments[e]);
  }
}

Precompute PlanningContext::RunPrecompute(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const CtBusOptions& options) {
  Precompute pre;

  // Phase 1: realize the plannable-edge universe (shortest-path search per
  // candidate edge; Table 4's "Shortest path" column).
  Stopwatch stopwatch;
  EdgeUniverseOptions universe_options;
  universe_options.tau = options.tau;
  pre.universe = EdgeUniverse::Build(road, transit, universe_options);
  pre.stats.universe_seconds = stopwatch.Seconds();
  pre.stats.num_new_edges = pre.universe.num_new_edges();

  // Phase 2: Delta(e) for every new edge (Table 4's "Connectivity"
  // column): one exact local trace increment per edge, then the tr_0
  // anchor. Sharded over options.precompute_threads; bit-identical to
  // serial.
  stopwatch.Reset();
  pre.trace_increments.assign(pre.universe.num_edges(), 0.0);
  SolveAndAnchor(transit.AdjacencyMatrix(), options, NewEdgeIds(pre.universe),
                 &pre);
  pre.stats.increments_seconds = stopwatch.Seconds();
  return pre;
}

Precompute PlanningContext::DerivePrecompute(const graph::RoadNetwork& road,
                                             const graph::TransitNetwork& transit,
                                             const CtBusOptions& options,
                                             const Precompute& prev,
                                             const SnapshotDelta& delta) {
  Precompute pre;
  pre.stats.derived = true;

  // Phase 1 replacement: carry the shortest-path realizations over. The
  // derived universe is bit-identical to EdgeUniverse::Build on the new
  // networks (commits add transit edges and zero demand; they never move
  // stops or change road topology).
  Stopwatch stopwatch;
  pre.universe = EdgeUniverse::DeriveFrom(prev.universe, road, transit);
  pre.stats.universe_seconds = stopwatch.Seconds();
  pre.stats.num_new_edges = pre.universe.num_new_edges();

  // Phase 2: re-solve the candidates whose ball may have changed (an
  // endpoint within the radius of a touched stop, on the new adjacency),
  // carry every other trace increment from the donor, then re-anchor.
  stopwatch.Reset();
  const linalg::SymmetricSparseMatrix adjacency = transit.AdjacencyMatrix();
  const std::vector<char> near =
      connectivity::StopsNear(adjacency, {}, delta.touched_stops);
  std::unordered_map<std::uint64_t, double> prev_trace;
  prev_trace.reserve(prev.universe.num_new_edges());
  const auto pair_key = [](int u, int v) {
    return (static_cast<std::uint64_t>(u) << 32) |
           static_cast<std::uint32_t>(v);
  };
  for (int e = 0; e < prev.universe.num_edges(); ++e) {
    const PlannableEdge& edge = prev.universe.edge(e);
    if (edge.is_new) {
      prev_trace.emplace(pair_key(edge.u, edge.v), prev.trace_increments[e]);
    }
  }
  pre.trace_increments.assign(pre.universe.num_edges(), 0.0);
  std::vector<int> todo;
  for (int e = 0; e < pre.universe.num_edges(); ++e) {
    const PlannableEdge& edge = pre.universe.edge(e);
    if (!edge.is_new) continue;
    const auto it = near[edge.u] || near[edge.v]
                        ? prev_trace.end()
                        : prev_trace.find(pair_key(edge.u, edge.v));
    if (it == prev_trace.end()) {
      todo.push_back(e);  // ball may have changed, or unknown to the donor
    } else {
      pre.trace_increments[e] = it->second;
      ++pre.stats.num_increments_carried;
    }
  }
  SolveAndAnchor(adjacency, options, todo, &pre);
  pre.stats.increments_seconds = stopwatch.Seconds();
  return pre;
}

PlanningContext PlanningContext::Build(const graph::RoadNetwork& road,
                                       const graph::TransitNetwork& transit,
                                       const CtBusOptions& options) {
  return BuildWithPrecompute(road, transit, options,
                             RunPrecompute(road, transit, options));
}

PlanningBase::PlanningBase(const graph::RoadNetwork& road,
                           const graph::TransitNetwork& transit,
                           std::shared_ptr<const Precompute> precompute)
    : road_(&road),
      transit_(&transit),
      precompute_(std::move(precompute)),
      adjacency_(transit.AdjacencyMatrix()),
      base_lambda_(std::log(precompute_->base_trace / transit.num_stops())),
      spectral_radius_cap_(SpectralRadiusCap(adjacency_)),
      demand_list_(precompute_->universe.DemandScores()),
      increment_list_(precompute_->increments) {}

std::shared_ptr<const PlanningBase> PlanningBase::Build(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    std::shared_ptr<const Precompute> precompute) {
  return std::shared_ptr<const PlanningBase>(
      new PlanningBase(road, transit, std::move(precompute)));
}

std::size_t PlanningBase::ApproxBytes() const {
  return sizeof(PlanningBase) + precompute_->ApproxBytes() +
         adjacency_.ApproxBytes() - sizeof(linalg::SymmetricSparseMatrix) +
         demand_list_.ApproxBytes() - sizeof(demand::RankedList) +
         increment_list_.ApproxBytes() - sizeof(demand::RankedList);
}

PlanningContext PlanningContext::BuildWithPrecompute(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const CtBusOptions& options, Precompute precompute) {
  return BuildWithPrecompute(
      road, transit, options,
      std::make_shared<const Precompute>(std::move(precompute)));
}

PlanningContext PlanningContext::BuildWithPrecompute(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const CtBusOptions& options,
    std::shared_ptr<const Precompute> precompute) {
  return Build(PlanningBase::Build(road, transit, std::move(precompute)),
               options);
}

PlanningContext PlanningContext::Build(
    std::shared_ptr<const PlanningBase> base, const CtBusOptions& options) {
  PlanningContext ctx;
  ctx.base_ = std::move(base);
  ctx.options_ = options;

  // Equation 12 normalization over the base's ranked lists.
  ctx.d_max_ = std::max(ctx.demand_list().TopSum(options.k), 1e-12);
  ctx.lambda_max_ = std::max(ctx.increment_list().TopSum(options.k), 1e-12);
  return ctx;
}

demand::RankedList PlanningContext::BuildObjectiveList() const {
  const EdgeUniverse& universe = this->universe();
  const std::vector<double>& delta = increments();
  std::vector<double> scores(universe.num_edges());
  for (int e = 0; e < universe.num_edges(); ++e) {
    scores[e] = Objective(universe.edge(e).demand, delta[e]);
  }
  return demand::RankedList(std::move(scores));
}

double PlanningContext::Objective(double demand,
                                  double connectivity_increment) const {
  return options_.w * demand / d_max_ +
         (1.0 - options_.w) * connectivity_increment / lambda_max_;
}

double PlanningContext::TraceIncrement(const std::vector<int>& path_edges,
                                       int* local_solves) const {
  std::vector<std::pair<int, int>> staged;
  double total = 0.0;
  for (int e : path_edges) {
    const PlannableEdge& edge = universe().edge(e);
    if (!edge.is_new) continue;
    if (staged.empty()) {
      // LocalTraceIncrement(adjacency, {}, u, v): the precompute solved
      // exactly this call on the same adjacency.
      total += base_->precompute()->trace_increments[e];
    } else {
      total += connectivity::LocalTraceIncrement(base_->adjacency(), staged,
                                                 edge.u, edge.v);
      if (local_solves != nullptr) ++*local_solves;
    }
    staged.emplace_back(edge.u, edge.v);
  }
  return total;
}

double PlanningContext::EdgeTraceIncrement(const std::vector<int>& path_edges,
                                           int edge, int* local_solves) const {
  const PlannableEdge& e = universe().edge(edge);
  if (!e.is_new) return 0.0;
  if (local_solves != nullptr) ++*local_solves;
  return connectivity::LocalTraceIncrement(
      base_->adjacency(), NewStopPairs(universe(), path_edges), e.u, e.v);
}

double PlanningContext::OnlineConnectivityIncrement(
    const std::vector<int>& path_edges) const {
  return ConnectivityFromTrace(TraceIncrement(path_edges));
}

std::size_t PlanningContext::ApproxBytes() const {
  return sizeof(PlanningContext) + base_->ApproxBytes();
}

double PlanningContext::LinearConnectivityIncrement(
    const std::vector<int>& path_edges) const {
  double total = 0.0;
  const std::vector<double>& delta = increments();
  for (int e : path_edges) total += delta[e];
  return total;
}

double PlanningContext::PathConnectivityIncrementBound(int k) const {
  // Lemma 4 weighs e^{lambda_i}, i < (k + 1) / 2, by e^{sigma_i} - 1 > 0, so
  // capping every such lambda_i at the certified lambda_1 cap keeps the
  // bound an upper bound.
  const std::vector<double> capped((k + 1) / 2, base_->spectral_radius_cap());
  const double bound = connectivity::PathUpperBound(
      base_lambda(), capped, k, transit().num_stops());
  return bound - base_lambda();
}

}  // namespace ctbus::core
