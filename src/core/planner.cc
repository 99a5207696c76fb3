#include "core/planner.h"

#include <cassert>
#include <utility>

namespace ctbus::core {

CtBusPlanner::CtBusPlanner(graph::RoadNetwork road,
                           graph::TransitNetwork transit,
                           const CtBusOptions& options)
    : road_(std::move(road)),
      transit_(std::move(transit)),
      options_(options) {}

PlanningContext& CtBusPlanner::context() {
  if (context_ == nullptr) {
    context_ = std::make_unique<PlanningContext>(
        PlanningContext::Build(road_, transit_, options_));
  }
  return *context_;
}

PlanResult RunPlanner(const PlanningContext* context, Planner planner) {
  switch (planner) {
    case Planner::kEta:
      return RunEta(context, SearchMode::kOnline);
    case Planner::kEtaPre:
      return RunEta(context, SearchMode::kPrecomputed);
    case Planner::kVkTsp:
      return RunVkTsp(context);
  }
  return {};
}

PlanResult CtBusPlanner::PlanRoute(Planner planner) {
  return RunPlanner(&context(), planner);
}

int ApplyCommit(const PlanResult& result, const EdgeUniverse& universe,
                graph::RoadNetwork* road, graph::TransitNetwork* transit) {
  // Realize the route in the transit network: create missing edges, then
  // register the stop sequence as a route.
  for (int e : result.path.edges()) {
    const PlannableEdge& edge = universe.edge(e);
    transit->AddEdge(edge.u, edge.v, edge.length, edge.road_edges);
  }
  const int route_id = transit->AddRoute(result.path.stops());
  // Covered road edges stop contributing demand (Section 6.3).
  for (int e : result.path.edges()) {
    road->ZeroTripCounts(universe.edge(e).road_edges);
  }
  return route_id;
}

int CtBusPlanner::CommitRoute(const PlanResult& result) {
  assert(result.found);
  const int route_id =
      ApplyCommit(result, context().universe(), &road_, &transit_);
  context_.reset();  // network changed; rebuild lazily
  return route_id;
}

std::vector<PlanResult> CtBusPlanner::PlanMultipleRoutes(int count,
                                                         Planner planner) {
  std::vector<PlanResult> results;
  for (int round = 0; round < count; ++round) {
    PlanResult result = PlanRoute(planner);
    if (!result.found) break;
    CommitRoute(result);
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace ctbus::core
