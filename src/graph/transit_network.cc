#include "graph/transit_network.h"

#include <algorithm>
#include <cassert>

namespace ctbus::graph {

int TransitNetwork::AddStop(int road_vertex, const Point& position) {
  stops_.push_back({road_vertex, position});
  adjacency_.emplace_back();
  return num_stops() - 1;
}

int TransitNetwork::AddEdge(int u, int v, double length,
                            std::vector<int> road_edges) {
  assert(u >= 0 && u < num_stops());
  assert(v >= 0 && v < num_stops());
  assert(u != v);
  if (const auto existing = AnyEdgeBetween(u, v); existing.has_value()) {
    return *existing;
  }
  const int id = num_edges();
  Edge edge;
  edge.u = u;
  edge.v = v;
  edge.length = length;
  edge.road_edges = std::move(road_edges);
  edges_.push_back(std::move(edge));
  adjacency_[u].push_back({v, id});
  adjacency_[v].push_back({u, id});
  return id;
}

int TransitNetwork::AddRoute(const std::vector<int>& stop_sequence) {
  assert(stop_sequence.size() >= 2);
  const int route_id = num_routes();
  for (std::size_t i = 1; i < stop_sequence.size(); ++i) {
    const auto edge_id =
        AnyEdgeBetween(stop_sequence[i - 1], stop_sequence[i]);
    assert(edge_id.has_value() &&
           "AddRoute requires transit edges between consecutive stops");
    Edge& edge = edges_[*edge_id];
    if (edge.routes.empty()) ++num_active_edges_;
    edge.routes.push_back(route_id);
  }
  routes_.push_back({stop_sequence, /*active=*/true});
  ++num_active_routes_;
  return route_id;
}

void TransitNetwork::RemoveRoute(int route) {
  assert(route >= 0 && route < num_routes());
  Route& r = routes_[route];
  if (!r.active) return;
  r.active = false;
  --num_active_routes_;
  for (std::size_t i = 1; i < r.stops.size(); ++i) {
    const auto edge_id = AnyEdgeBetween(r.stops[i - 1], r.stops[i]);
    assert(edge_id.has_value());
    Edge& edge = edges_[*edge_id];
    auto it = std::find(edge.routes.begin(), edge.routes.end(), route);
    if (it != edge.routes.end()) {
      edge.routes.erase(it);
      if (edge.routes.empty()) --num_active_edges_;
    }
  }
}

std::optional<int> TransitNetwork::ActiveEdgeBetween(int u, int v) const {
  for (const AdjEntry& entry : adjacency_[u]) {
    if (entry.stop == v && EdgeActive(entry.edge)) return entry.edge;
  }
  return std::nullopt;
}

std::optional<int> TransitNetwork::AnyEdgeBetween(int u, int v) const {
  const int base = adjacency_[u].size() <= adjacency_[v].size() ? u : v;
  const int other = base == u ? v : u;
  for (const AdjEntry& entry : adjacency_[base]) {
    if (entry.stop == other) return entry.edge;
  }
  return std::nullopt;
}

std::vector<TransitNetwork::AdjEntry> TransitNetwork::ActiveNeighbors(
    int stop) const {
  std::vector<AdjEntry> result;
  for (const AdjEntry& entry : adjacency_[stop]) {
    if (EdgeActive(entry.edge)) result.push_back(entry);
  }
  return result;
}

std::vector<Point> TransitNetwork::StopPositions() const {
  std::vector<Point> positions;
  positions.reserve(stops_.size());
  for (const Stop& s : stops_) positions.push_back(s.position);
  return positions;
}

std::vector<int> TransitNetwork::RoutesAtStop(int stop) const {
  std::vector<int> result;
  for (const AdjEntry& entry : adjacency_[stop]) {
    for (int route : edges_[entry.edge].routes) {
      if (routes_[route].active) result.push_back(route);
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

linalg::SymmetricSparseMatrix TransitNetwork::AdjacencyMatrix() const {
  std::vector<linalg::SymmetricSparseMatrix::Triplet> entries;
  entries.reserve(static_cast<std::size_t>(num_active_edges_));
  for (const Edge& edge : edges_) {
    if (!edge.routes.empty()) entries.push_back({edge.u, edge.v, 1.0});
  }
  return linalg::SymmetricSparseMatrix(num_stops(), entries);
}

std::size_t TransitNetwork::ApproxBytes() const {
  std::size_t bytes = sizeof(TransitNetwork) +
                      stops_.size() * sizeof(Stop) +
                      edges_.size() * sizeof(Edge) +
                      routes_.size() * sizeof(Route) +
                      adjacency_.size() * sizeof(std::vector<AdjEntry>) +
                      2 * edges_.size() * sizeof(AdjEntry);
  for (const Edge& edge : edges_) {
    bytes += edge.road_edges.size() * sizeof(int) +
             edge.routes.size() * sizeof(int);
  }
  for (const Route& route : routes_) {
    bytes += route.stops.size() * sizeof(int);
  }
  return bytes;
}

double TransitNetwork::AverageRouteLength() const {
  if (num_active_routes_ == 0) return 0.0;
  double total = 0.0;
  for (const Route& r : routes_) {
    if (r.active) total += static_cast<double>(r.stops.size());
  }
  return total / num_active_routes_;
}

}  // namespace ctbus::graph
