// Transit network (Definition 2): bus stops affiliated with road vertices,
// transit edges realized as road paths, and bus routes as stop sequences.
// Supports route removal (Figure 1's monotonicity experiment) and committing
// newly planned routes (multi-route planning, Section 6.3).
#ifndef CTBUS_GRAPH_TRANSIT_NETWORK_H_
#define CTBUS_GRAPH_TRANSIT_NETWORK_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/geo.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::graph {

class TransitNetwork {
 public:
  struct Stop {
    /// Road vertex this stop is affiliated with (Definition 2).
    int road_vertex = -1;
    Point position;
  };

  struct Edge {
    int u = -1;  // stop id
    int v = -1;  // stop id
    /// Travel length of the underlying road path, |e| in the paper.
    double length = 0.0;
    /// Road edge ids this transit edge crosses (may be empty for synthetic
    /// edges without a realized road path).
    std::vector<int> road_edges;
    /// Routes using this edge. An edge with no routes is inactive: it is not
    /// part of the network topology (it exists only as bookkeeping after
    /// RemoveRoute).
    std::vector<int> routes;
  };

  struct Route {
    std::vector<int> stops;
    bool active = true;
  };

  struct AdjEntry {
    int stop = -1;
    int edge = -1;
  };

  TransitNetwork() = default;

  /// Adds a stop affiliated with `road_vertex` at `position`; returns its id.
  int AddStop(int road_vertex, const Point& position);

  /// Adds (or finds) the transit edge {u, v}. If the edge already exists its
  /// metadata is left untouched. Returns the edge id.
  int AddEdge(int u, int v, double length, std::vector<int> road_edges);

  /// Registers a route through consecutive stops. Each consecutive stop pair
  /// must already have a transit edge (add them with AddEdge first).
  /// Returns the route id.
  int AddRoute(const std::vector<int>& stop_sequence);

  /// Removes a route: edges used by no remaining route become inactive.
  void RemoveRoute(int route);

  int num_stops() const { return static_cast<int>(stops_.size()); }
  int num_routes() const { return static_cast<int>(routes_.size()); }
  int num_active_routes() const { return num_active_routes_; }
  /// Total edges ever created (active + inactive).
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int num_active_edges() const { return num_active_edges_; }

  const Stop& stop(int s) const { return stops_[s]; }
  const Edge& edge(int e) const { return edges_[e]; }
  const Route& route(int r) const { return routes_[r]; }
  bool EdgeActive(int e) const { return !edges_[e].routes.empty(); }

  /// Active edge joining stops u and v, if any.
  std::optional<int> ActiveEdgeBetween(int u, int v) const;

  /// Any edge (active or not) joining stops u and v, if any.
  std::optional<int> AnyEdgeBetween(int u, int v) const;

  /// Neighbors of `stop` through active edges.
  std::vector<AdjEntry> ActiveNeighbors(int stop) const;

  /// Stop positions, indexed by stop id (for spatial indexing).
  std::vector<Point> StopPositions() const;

  /// Distinct active routes passing through `stop`.
  std::vector<int> RoutesAtStop(int stop) const;

  /// Unweighted adjacency matrix over active edges; dimension num_stops().
  /// Rows are sorted by column, so the matrix depends on the active edge
  /// set, not on the order the edges were added in.
  linalg::SymmetricSparseMatrix AdjacencyMatrix() const;

  /// Average number of stops per active route (len(R) in Table 5).
  double AverageRouteLength() const;

  /// Approximate resident footprint in bytes: stops, edges (including
  /// their realized road-edge lists and route back-references), routes,
  /// and adjacency. Deterministic; O(edges + routes).
  std::size_t ApproxBytes() const;

 private:
  std::vector<Stop> stops_;
  std::vector<Edge> edges_;
  std::vector<Route> routes_;
  // Adjacency over all edges; filter with EdgeActive.
  std::vector<std::vector<AdjEntry>> adjacency_;
  int num_active_edges_ = 0;
  int num_active_routes_ = 0;
};

}  // namespace ctbus::graph

#endif  // CTBUS_GRAPH_TRANSIT_NETWORK_H_
