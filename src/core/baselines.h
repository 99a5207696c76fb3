// Comparable approaches from Section 2 / 7.2.1:
//  * vk-TSP (demand-first): maximize demand alone (w = 1) with new edges
//    only, implemented on the same expansion framework as ETA.
//  * Connectivity-first (Chan et al. [22]): greedily add l discrete edges
//    maximizing natural connectivity, scored with the same exact local
//    trace increments as ETA, then try to stitch them into a route
//    (Figure 6 shows the stitching fails: the edges are scattered or star
//    around a hub).
#ifndef CTBUS_CORE_BASELINES_H_
#define CTBUS_CORE_BASELINES_H_

#include <utility>
#include <vector>

#include "core/eta.h"
#include "core/planning_context.h"

namespace ctbus::core {

/// Plans a route with the demand-first baseline. Overrides w = 1 and
/// restricts the search to new edges; everything else follows the
/// configuration in the context's options. Runs in precomputed mode (the
/// baseline needs no connectivity evaluation at all).
PlanResult RunVkTsp(const PlanningContext* context);

/// Result of the connectivity-first greedy edge augmentation.
struct ConnectivityFirstResult {
  /// Chosen universe edge ids, in pick order.
  std::vector<int> edges;
  /// Connectivity increment of the chosen edge set:
  /// context->OnlineConnectivityIncrement(edges), bit for bit.
  double connectivity_increment = 0.0;
  /// Number of connected components the chosen edges form among
  /// themselves — a route would need 1.
  int num_components = 0;
  /// Largest number of chosen edges sharing one stop. A simple path needs
  /// <= 2; greedy picks tend to star around hub stops.
  int max_stop_degree = 0;
  /// True iff the edges can be ordered into one simple path
  /// (num_components == 1 and max_stop_degree <= 2) — i.e. the edge set is
  /// directly usable as a bus route. Figure 6's point is that it is not.
  bool forms_simple_path = false;
  /// Total straight-line gap (meters) a TSP-style tour over the edge
  /// fragments would have to bridge with extra road mileage.
  double stitch_gap_meters = 0.0;
};

/// Greedy augmentation of [22]: pick `l` discrete new edges one at a time,
/// each maximizing the marginal connectivity increment over every
/// remaining candidate, ties to the lowest universe id. Marginal gains are
/// exact local trace increments against the edges picked so far
/// (PlanningContext::EdgeTraceIncrement); after a pick only the candidates
/// within kLocalIncrementRadius hops of it are re-solved, the rest keep
/// their still-exact gains. Estimates nothing: the result is a pure
/// function of the context's base.
ConnectivityFirstResult RunConnectivityFirst(const PlanningContext* context,
                                             int l);

}  // namespace ctbus::core

#endif  // CTBUS_CORE_BASELINES_H_
