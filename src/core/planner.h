// Top-level facade: owns dataset copies and exposes single-route planning
// (ETA / ETA-Pre / vk-TSP) plus iterative multi-route planning
// (Section 6.3: commit a route, zero its covered demand, update the transit
// network, replan).
#ifndef CTBUS_CORE_PLANNER_H_
#define CTBUS_CORE_PLANNER_H_

#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/eta.h"
#include "core/options.h"
#include "core/planning_context.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"

namespace ctbus::core {

enum class Planner {
  kEta,     // online connectivity evaluation
  kEtaPre,  // pre-computed linearized objective
  kVkTsp,   // demand-first baseline
};

/// The one mapping from a request's planner to a search (Section 7.2.1,
/// Table 7): kEta is RunEta online, kEtaPre is RunEta over the precomputed
/// Delta(e), kVkTsp is RunVkTsp. Every in-tree caller plans through this.
PlanResult RunPlanner(const PlanningContext* context, Planner planner);

/// Section 6.3's commit, the one copy CtBusPlanner::CommitRoute and
/// service::SnapshotStore::CommitRoute both apply: realizes the route's
/// edges in `transit`, registers its stop sequence as a route, and zeroes
/// the demand on the road edges it covers. `universe` must be the one
/// `result` was planned over. Returns the new route id.
int ApplyCommit(const PlanResult& result, const EdgeUniverse& universe,
                graph::RoadNetwork* road, graph::TransitNetwork* transit);

class CtBusPlanner {
 public:
  /// Copies the networks so multi-route planning can mutate them freely.
  CtBusPlanner(graph::RoadNetwork road, graph::TransitNetwork transit,
               const CtBusOptions& options);

  /// The context for the *current* network state, built lazily and
  /// invalidated by CommitRoute.
  PlanningContext& context();

  /// Plans one route without modifying the network.
  PlanResult PlanRoute(Planner planner);

  /// Commits a planned route: registers it as a new bus route in the
  /// transit network (realizing its new edges) and zeroes the demand on
  /// covered road edges. Invalidate-and-rebuild semantics for the context.
  /// Returns the new route id in the internal transit network.
  int CommitRoute(const PlanResult& result);

  /// Plans `count` routes iteratively (plan, commit, replan). Stops early
  /// if no feasible route remains. Returns the per-round results.
  std::vector<PlanResult> PlanMultipleRoutes(int count, Planner planner);

  const graph::RoadNetwork& road() const { return road_; }
  const graph::TransitNetwork& transit() const { return transit_; }

 private:
  graph::RoadNetwork road_;
  graph::TransitNetwork transit_;
  CtBusOptions options_;
  std::unique_ptr<PlanningContext> context_;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_PLANNER_H_
