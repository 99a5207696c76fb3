#include "core/path_state.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "graph/geo.h"

namespace ctbus::core {

CandidatePath::CandidatePath(const EdgeUniverse& universe, int edge) {
  const PlannableEdge& e = universe.edge(edge);
  edges_.push_back(edge);
  stops_ = {e.u, e.v};
  used_road_edges_ = e.road_edges;
  std::sort(used_road_edges_.begin(), used_road_edges_.end());
  demand_ = e.demand;
  num_new_edges_ = e.is_new ? 1 : 0;
}

bool CandidatePath::CanExtend(const EdgeUniverse& universe, int edge,
                              int at_stop) const {
  if (closed_) return false;
  assert(at_stop == begin_stop() || at_stop == end_stop());
  const PlannableEdge& e = universe.edge(edge);
  if (e.u != at_stop && e.v != at_stop) return false;
  const int far = e.u == at_stop ? e.v : e.u;
  // Circle-free in the transit network: the far stop may not be revisited,
  // except to close a loop back to the opposite end of the path.
  const int opposite = at_stop == end_stop() ? begin_stop() : end_stop();
  const bool visited =
      std::find(stops_.begin(), stops_.end(), far) != stops_.end();
  if (visited && !(far == opposite && num_edges() >= 2)) {
    return false;
  }
  // Edge reuse (also covers the 1-edge path closing onto itself).
  for (int used : edges_) {
    if (used == edge) return false;
  }
  // Circle-free in the road network: no road edge crossed twice.
  for (int re : e.road_edges) {
    if (std::binary_search(used_road_edges_.begin(), used_road_edges_.end(),
                           re)) {
      return false;
    }
  }
  return true;
}

void CandidatePath::Extend(const EdgeUniverse& universe,
                           const graph::TransitNetwork& transit, int edge,
                           int at_stop) {
  const PlannableEdge& e = universe.edge(edge);
  const int far = e.u == at_stop ? e.v : e.u;

  // Turn accounting (Algorithm 2): deviation angle at the junction stop
  // between the incumbent end edge and the new edge.
  const bool at_end = at_stop == end_stop();
  const int inner_stop = at_end ? stops_[stops_.size() - 2] : stops_[1];
  const double angle =
      graph::TurnAngle(transit.stop(inner_stop).position,
                       transit.stop(at_stop).position,
                       transit.stop(far).position);
  if (angle > M_PI / 2) {
    turns_ += kSharpTurnPenalty;
  } else if (angle > M_PI / 4) {
    turns_ += 1;
  }

  // Loop closure back to the opposite end: the far stop is already on the
  // path (CanExtend admits no other revisit).
  if (std::find(stops_.begin(), stops_.end(), far) != stops_.end()) {
    closed_ = true;
  }
  if (at_end) {
    edges_.push_back(edge);
    stops_.push_back(far);
  } else {
    edges_.insert(edges_.begin(), edge);
    stops_.insert(stops_.begin(), far);
  }
  const auto appended = used_road_edges_.insert(
      used_road_edges_.end(), e.road_edges.begin(), e.road_edges.end());
  std::sort(appended, used_road_edges_.end());
  std::inplace_merge(used_road_edges_.begin(), appended,
                     used_road_edges_.end());
  demand_ += e.demand;
  if (e.is_new) ++num_new_edges_;
}

}  // namespace ctbus::core
