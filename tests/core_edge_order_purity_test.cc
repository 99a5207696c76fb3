// A plan is a function of network content, not of the order the network's
// edges were added in. Chicago at scale 0.5 is rebuilt twice, with its
// transit edges added in generation order and in reverse; the stops, edge
// set and routes are the same. The adjacency rows, the precompute's tr_0
// anchor, the spectral radius cap and Lemma 4 bound, and the ETA-Pre,
// VK-TSP and online-ETA routes must then agree bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "graph/transit_network.h"

namespace ctbus::core {
namespace {

/// `source`'s stops and routes, with its edges added in `edge_order`.
graph::TransitNetwork Rebuild(const graph::TransitNetwork& source,
                              const std::vector<int>& edge_order) {
  graph::TransitNetwork rebuilt;
  for (int s = 0; s < source.num_stops(); ++s) {
    rebuilt.AddStop(source.stop(s).road_vertex, source.stop(s).position);
  }
  for (int e : edge_order) {
    const graph::TransitNetwork::Edge& edge = source.edge(e);
    rebuilt.AddEdge(edge.u, edge.v, edge.length, edge.road_edges);
  }
  for (int r = 0; r < source.num_routes(); ++r) {
    rebuilt.AddRoute(source.route(r).stops);
    if (!source.route(r).active) rebuilt.RemoveRoute(r);
  }
  return rebuilt;
}

CtBusOptions PurityOptions(int max_iterations) {
  CtBusOptions options;
  options.k = 8;
  options.w = 0.5;
  options.max_iterations = max_iterations;
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/11};
  options.online_estimator = {/*probes=*/50, /*lanczos_steps=*/10,
                              /*seed=*/1};
  return options;
}

/// A route as stop pairs: universe edge ids follow transit edge ids, so
/// they differ between the two builds even where the routes agree.
std::vector<std::pair<int, int>> RouteStopPairs(const PlanningContext& ctx,
                                                const PlanResult& result) {
  std::vector<std::pair<int, int>> pairs;
  for (int e : result.path.edges()) {
    pairs.emplace_back(ctx.universe().edge(e).u, ctx.universe().edge(e).v);
  }
  return pairs;
}

void ExpectSamePlan(const PlanningContext& ctx_a, const PlanResult& a,
                    const PlanningContext& ctx_b, const PlanResult& b) {
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(RouteStopPairs(ctx_a, a), RouteStopPairs(ctx_b, b));
  EXPECT_EQ(a.path.stops(), b.path.stops());
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(EdgeOrderPurityTest, ChicagoPlansDependOnEdgeSetNotEdgeOrder) {
  const gen::Dataset city = gen::MakeChicagoLike(0.5);
  std::vector<int> order(city.transit.num_edges());
  for (int e = 0; e < city.transit.num_edges(); ++e) order[e] = e;
  const graph::TransitNetwork forward = Rebuild(city.transit, order);
  const std::vector<int> reversed(order.rbegin(), order.rend());
  const graph::TransitNetwork backward = Rebuild(city.transit, reversed);

  const linalg::SymmetricSparseMatrix a = forward.AdjacencyMatrix();
  const linalg::SymmetricSparseMatrix b = backward.AdjacencyMatrix();
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  std::vector<int> differing_rows;
  for (int u = 0; u < a.dim(); ++u) {
    bool same = a.RowDegree(u) == b.RowDegree(u);
    for (int j = 0; same && j < a.RowDegree(u); ++j) {
      same = a.Row(u)[j].col == b.Row(u)[j].col &&
             a.Row(u)[j].value == b.Row(u)[j].value;
    }
    if (!same) differing_rows.push_back(u);
  }
  EXPECT_TRUE(differing_rows.empty())
      << differing_rows.size() << " rows differ, the first is row "
      << (differing_rows.empty() ? -1 : differing_rows.front());

  const CtBusOptions options = PurityOptions(/*max_iterations=*/500);
  const auto pre_a = std::make_shared<const Precompute>(
      PlanningContext::RunPrecompute(city.road, forward, options));
  const auto pre_b = std::make_shared<const Precompute>(
      PlanningContext::RunPrecompute(city.road, backward, options));
  EXPECT_EQ(pre_a->base_trace, pre_b->base_trace);
  const auto base_a = PlanningBase::Build(city.road, forward, pre_a);
  const auto base_b = PlanningBase::Build(city.road, backward, pre_b);

  const PlanningContext ctx_a = PlanningContext::Build(base_a, options);
  const PlanningContext ctx_b = PlanningContext::Build(base_b, options);
  EXPECT_EQ(base_a->spectral_radius_cap(), base_b->spectral_radius_cap());
  for (int k : {2, 8, 30}) {
    EXPECT_EQ(ctx_a.PathConnectivityIncrementBound(k),
              ctx_b.PathConnectivityIncrementBound(k))
        << "k=" << k;
  }
  {
    SCOPED_TRACE("ETA-Pre");
    ExpectSamePlan(ctx_a, RunEta(&ctx_a, SearchMode::kPrecomputed), ctx_b,
                   RunEta(&ctx_b, SearchMode::kPrecomputed));
  }
  {
    SCOPED_TRACE("VK-TSP");
    ExpectSamePlan(ctx_a, RunVkTsp(&ctx_a), ctx_b, RunVkTsp(&ctx_b));
  }
  {
    SCOPED_TRACE("online ETA");
    const CtBusOptions online = PurityOptions(/*max_iterations=*/2);
    const PlanningContext online_a = PlanningContext::Build(base_a, online);
    const PlanningContext online_b = PlanningContext::Build(base_b, online);
    ExpectSamePlan(online_a, RunEta(&online_a, SearchMode::kOnline), online_b,
                   RunEta(&online_b, SearchMode::kOnline));
  }
}

}  // namespace
}  // namespace ctbus::core
