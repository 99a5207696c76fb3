// Candidate-path state for the expansion search: the ordered edge/stop
// sequence, turn count (Algorithm 2's angle rule), demand, and the
// feasibility checks of Section 4.2.3 (circle-free in the transit network
// and in the road network, turn threshold).
#ifndef CTBUS_CORE_PATH_STATE_H_
#define CTBUS_CORE_PATH_STATE_H_

#include <vector>

#include "core/edge_universe.h"
#include "graph/transit_network.h"

namespace ctbus::core {

/// A candidate route under construction: value-semantic, three flat
/// vectors. The search moves paths through its queue and copies one only
/// for an ETA-AN child it keeps or a new incumbent.
class CandidatePath {
 public:
  CandidatePath() = default;

  /// Single-edge seed path.
  CandidatePath(const EdgeUniverse& universe, int edge);

  const std::vector<int>& edges() const { return edges_; }
  const std::vector<int>& stops() const { return stops_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int begin_stop() const { return stops_.front(); }
  int end_stop() const { return stops_.back(); }
  int begin_edge() const { return edges_.front(); }
  int end_edge() const { return edges_.back(); }
  int turns() const { return turns_; }
  double demand() const { return demand_; }
  /// Number of new (non-transit) edges in the path.
  int num_new_edges() const { return num_new_edges_; }

  /// True if `edge` can extend the path at `at_stop` (one of the two ends)
  /// without violating feasibility:
  ///  * the new far stop is not already on the path (loop closure back to
  ///    the opposite end is allowed, after which the path is closed),
  ///  * no road edge is crossed twice,
  ///  * the edge itself is not already used.
  bool CanExtend(const EdgeUniverse& universe, int edge, int at_stop) const;

  /// Extends at `at_stop` (front or back). Requires CanExtend. Updates the
  /// turn count per Algorithm 2: deviation angle > pi/4 adds a turn;
  /// > pi/2 marks the path as turn-saturated (turns set to a large value by
  /// the caller's threshold semantics — here we add a kSharpTurnPenalty).
  void Extend(const EdgeUniverse& universe,
              const graph::TransitNetwork& transit, int edge, int at_stop);

  /// True if the path returned to its starting stop (one-way loop).
  bool closed() const { return closed_; }

  /// Turn count assigned to a sharp (> pi/2) turn: effectively infinite so
  /// any threshold Tn rejects the path.
  static constexpr int kSharpTurnPenalty = 1 << 20;

 private:
  std::vector<int> edges_;
  std::vector<int> stops_;
  /// Road edges crossed by the path, sorted. The visited stops need no
  /// second container: stops_ holds at most k + 1 of them.
  std::vector<int> used_road_edges_;
  int turns_ = 0;
  double demand_ = 0.0;
  int num_new_edges_ = 0;
  bool closed_ = false;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_PATH_STATE_H_
