#include "core/planning_context.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "connectivity/bounds.h"
#include "connectivity/edge_increment.h"
#include "connectivity/local_increment.h"
#include "connectivity/perturbation.h"
#include "core/parallel_for.h"
#include "core/timing.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"

namespace ctbus::core {

namespace {

/// Delta(e) via one stochastic trace estimate per edge, for the universe
/// edges listed in `todo`, sharded over `num_threads` workers. One
/// immutable estimator, its probes pinned from
/// options.precompute_estimator.seed, serves the base estimate and every
/// shard, so all edges see the same common random numbers; each shard owns
/// only a fresh scratch adjacency. Each edge's result is therefore
/// independent of sharding — bit-identical to a serial run.
void ComputeStochasticIncrements(const graph::TransitNetwork& transit,
                                 const CtBusOptions& options,
                                 const EdgeUniverse& universe,
                                 const std::vector<int>& todo,
                                 int num_threads,
                                 std::vector<double>* increments) {
  const connectivity::ConnectivityEstimator estimator(
      transit.num_stops(), options.precompute_estimator);
  const double base = estimator.Estimate(transit.AdjacencyMatrix());
  ParallelFor(static_cast<int>(todo.size()), num_threads,
              [&](int /*shard*/, int begin, int end) {
                linalg::SymmetricSparseMatrix adjacency =
                    transit.AdjacencyMatrix();
                for (int i = begin; i < end; ++i) {
                  const PlannableEdge& edge = universe.edge(todo[i]);
                  (*increments)[todo[i]] = std::max(
                      0.0, connectivity::EdgeIncrement(
                               &adjacency, base, estimator, edge.u, edge.v));
                }
              });
}

/// Delta(e) via the first-order perturbation model: one Lanczos eigenpair
/// run on the calling thread, then the O(m)-per-edge evaluations sharded
/// over `num_threads` workers (the model is immutable, so shards share it).
void ComputePerturbationIncrements(const graph::TransitNetwork& transit,
                                   const CtBusOptions& options,
                                   const EdgeUniverse& universe,
                                   const std::vector<int>& todo,
                                   int num_threads,
                                   std::vector<double>* increments) {
  const linalg::SymmetricSparseMatrix adjacency = transit.AdjacencyMatrix();
  const connectivity::ConnectivityEstimator estimator(
      transit.num_stops(), options.precompute_estimator);
  const double base_trace = estimator.EstimateTraceExp(adjacency);
  const auto model = connectivity::PerturbationIncrementModel::Build(
      adjacency, std::max(base_trace, 1e-12), {});
  ParallelFor(static_cast<int>(todo.size()), num_threads,
              [&](int /*shard*/, int begin, int end) {
                for (int i = begin; i < end; ++i) {
                  const PlannableEdge& edge = universe.edge(todo[i]);
                  (*increments)[todo[i]] = std::max(
                      0.0, model.EdgeIncrement(edge.u, edge.v));
                }
              });
}

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

/// Runs the configured Delta(e) pass for `todo` and records its stats.
void RunIncrementPass(const graph::TransitNetwork& transit,
                      const CtBusOptions& options,
                      const EdgeUniverse& universe,
                      const std::vector<int>& todo, Precompute* pre) {
  if (todo.empty()) return;
  const int threads =
      std::max(1, std::min(ResolveThreadCount(options.precompute_threads),
                           static_cast<int>(todo.size())));
  if (options.use_perturbation_precompute) {
    ComputePerturbationIncrements(transit, options, universe, todo, threads,
                                  &pre->increments);
  } else {
    ComputeStochasticIncrements(transit, options, universe, todo, threads,
                                &pre->increments);
  }
  pre->stats.num_increments_recomputed = static_cast<int>(todo.size());
  pre->stats.threads_used = threads;
}

}  // namespace

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
  // column) — either one stochastic trace estimate per edge, or the
  // perturbation model (one Lanczos eigenpair run, then O(m) per edge).
  // Sharded over options.precompute_threads; bit-identical to serial.
  stopwatch.Reset();
  pre.increments.assign(pre.universe.num_edges(), 0.0);
  RunIncrementPass(transit, options, pre.universe, NewEdgeIds(pre.universe),
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
  pre.stats.derivation_depth = prev.stats.derivation_depth + 1;

  // Phase 1 replacement: carry the shortest-path realizations over. The
  // derived universe is bit-identical to EdgeUniverse::Build on the new
  // networks (commits add transit edges and zero demand; they never move
  // stops or change road topology).
  Stopwatch stopwatch;
  pre.universe = EdgeUniverse::DeriveFrom(prev.universe, road, transit);
  pre.stats.universe_seconds = stopwatch.Seconds();
  pre.stats.num_new_edges = pre.universe.num_new_edges();

  stopwatch.Reset();
  pre.increments.assign(pre.universe.num_edges(), 0.0);
  if (options.use_perturbation_precompute) {
    // The perturbation model is global (eigenpairs of the new adjacency),
    // so every candidate is re-evaluated — O(m) per edge after one Lanczos
    // run — keeping the derived result bit-identical to RunPrecompute.
    RunIncrementPass(transit, options, pre.universe, NewEdgeIds(pre.universe),
                     &pre);
  } else {
    // Stochastic path: recompute Delta(e) only for candidates with an
    // endpoint among the delta's touched stops (their increments see the
    // added edges at zeroth order); carry the rest over from the donor.
    // Recomputed values are bit-identical to from-scratch; carried values
    // differ only by the second-order interaction with the added edges.
    std::vector<char> touched(transit.num_stops(), 0);
    for (int s : delta.touched_stops) touched[s] = 1;
    std::unordered_map<std::uint64_t, double> prev_increment;
    prev_increment.reserve(prev.universe.num_new_edges());
    const auto pair_key = [](int u, int v) {
      return (static_cast<std::uint64_t>(u) << 32) |
             static_cast<std::uint32_t>(v);
    };
    for (int e = 0; e < prev.universe.num_edges(); ++e) {
      const PlannableEdge& edge = prev.universe.edge(e);
      if (!edge.is_new) continue;
      prev_increment.emplace(pair_key(edge.u, edge.v), prev.increments[e]);
    }
    std::vector<int> todo;
    int carried = 0;
    for (int e = 0; e < pre.universe.num_edges(); ++e) {
      const PlannableEdge& edge = pre.universe.edge(e);
      if (!edge.is_new) continue;
      const auto it = touched[edge.u] || touched[edge.v]
                          ? prev_increment.end()
                          : prev_increment.find(pair_key(edge.u, edge.v));
      if (it == prev_increment.end()) {
        todo.push_back(e);  // touched, or (defensively) unknown to the donor
      } else {
        pre.increments[e] = it->second;
        ++carried;
      }
    }
    RunIncrementPass(transit, options, pre.universe, todo, &pre);
    pre.stats.num_increments_carried = carried;
  }
  pre.stats.increments_seconds = stopwatch.Seconds();
  return pre;
}

PlanningContext PlanningContext::Build(const graph::RoadNetwork& road,
                                       const graph::TransitNetwork& transit,
                                       const CtBusOptions& options) {
  return BuildWithPrecompute(road, transit, options,
                             RunPrecompute(road, transit, options));
}

PlanningBase::PlanningBase(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const connectivity::EstimatorOptions& online_estimator,
    std::shared_ptr<const Precompute> precompute)
    : road_(&road),
      transit_(&transit),
      precompute_(std::move(precompute)),
      online_estimator_(online_estimator),
      estimator_(transit.num_stops(), online_estimator),
      adjacency_(transit.AdjacencyMatrix()),
      base_lambda_(estimator_.Estimate(adjacency_)),
      demand_list_(precompute_->universe.DemandScores()),
      increment_list_(precompute_->increments) {}

std::shared_ptr<const PlanningBase> PlanningBase::Build(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const connectivity::EstimatorOptions& online_estimator,
    std::shared_ptr<const Precompute> precompute) {
  return std::shared_ptr<const PlanningBase>(
      new PlanningBase(road, transit, online_estimator, std::move(precompute)));
}

std::size_t PlanningBase::ApproxBytes() const {
  return sizeof(PlanningBase) + precompute_->ApproxBytes() +
         estimator_.ApproxBytes() - sizeof(connectivity::ConnectivityEstimator) +
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
  return Build(PlanningBase::Build(road, transit, options.online_estimator,
                                   std::move(precompute)),
               options);
}

PlanningContext PlanningContext::Build(
    std::shared_ptr<const PlanningBase> base, const CtBusOptions& options) {
  if (options.online_estimator != base->online_estimator()) {
    throw std::invalid_argument(
        "PlanningContext::Build: options.online_estimator differs from the "
        "base's online estimator");
  }
  PlanningContext ctx;
  ctx.base_ = std::move(base);
  ctx.options_ = options;

  // Equation 12 normalization over the base's ranked lists.
  ctx.d_max_ = std::max(ctx.demand_list().TopSum(options.k), 1e-12);
  ctx.lambda_max_ = std::max(ctx.increment_list().TopSum(options.k), 1e-12);

  // Integrated per-edge objective scores L_e (Equation 11).
  const EdgeUniverse& universe = ctx.universe();
  const std::vector<double>& increments = ctx.increments();
  std::vector<double> objective_scores(universe.num_edges());
  for (int e = 0; e < universe.num_edges(); ++e) {
    objective_scores[e] =
        ctx.Objective(universe.edge(e).demand, increments[e]);
  }
  ctx.objective_list_ = demand::RankedList(std::move(objective_scores));
  return ctx;
}

std::vector<double> PlanningContext::top_eigenvalues() const {
  const int n = transit().num_stops();
  const int needed = std::max(2 * options_.k, 2);
  linalg::Rng eig_rng(options_.online_estimator.seed ^ 0x9e3779b9ULL);
  return linalg::TopEigenvalues(base_->adjacency(), std::min(needed, n),
                                std::min(n, needed + 30), &eig_rng);
}

double PlanningContext::Objective(double demand,
                                  double connectivity_increment) const {
  return options_.w * demand / d_max_ +
         (1.0 - options_.w) * connectivity_increment / lambda_max_;
}

double PlanningContext::TraceIncrement(
    const std::vector<int>& path_edges) const {
  std::vector<std::pair<int, int>> staged;
  double total = 0.0;
  for (const auto& [u, v] : NewStopPairs(universe(), path_edges)) {
    total += connectivity::LocalTraceIncrement(base_->adjacency(), staged,
                                               u, v);
    staged.emplace_back(u, v);
  }
  return total;
}

double PlanningContext::EdgeTraceIncrement(const std::vector<int>& path_edges,
                                           int edge) const {
  const PlannableEdge& e = universe().edge(edge);
  if (!e.is_new) return 0.0;
  return connectivity::LocalTraceIncrement(
      base_->adjacency(), NewStopPairs(universe(), path_edges), e.u, e.v);
}

double PlanningContext::ConnectivityFromTrace(double trace_increment) const {
  const double base_trace = transit().num_stops() * std::exp(base_lambda());
  return std::log1p(trace_increment / base_trace);
}

double PlanningContext::OnlineConnectivityIncrement(
    const std::vector<int>& path_edges) const {
  return ConnectivityFromTrace(TraceIncrement(path_edges));
}

std::size_t PlanningContext::ApproxBytes() const {
  return sizeof(PlanningContext) + base_->ApproxBytes() +
         objective_list_.ApproxBytes();
}

double PlanningContext::LinearConnectivityIncrement(
    const std::vector<int>& path_edges) const {
  double total = 0.0;
  const std::vector<double>& delta = increments();
  for (int e : path_edges) total += delta[e];
  return total;
}

double PlanningContext::PathConnectivityIncrementBound(int k) const {
  const double bound = connectivity::PathUpperBound(
      base_lambda(), top_eigenvalues(), k, transit().num_stops());
  return bound - base_lambda();
}

}  // namespace ctbus::core
