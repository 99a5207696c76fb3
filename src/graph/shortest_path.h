// Shortest-path algorithms over Graph: Dijkstra (full tree, bounded, and a
// reusable search that stops once a set of targets is settled), path
// extraction from a tree, and BFS hop counts. Used to realize candidate
// transit edges as road paths, to fold generated trips into road-edge trip
// counts, and by the transfer-convenience metrics; BfsHops is the unit-weight
// reference Dijkstra is tested against.
#ifndef CTBUS_GRAPH_SHORTEST_PATH_H_
#define CTBUS_GRAPH_SHORTEST_PATH_H_

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ctbus::graph {

/// Shortest-path tree from a single source.
struct ShortestPathTree {
  /// dist[v] is the shortest distance from the source, or +inf if
  /// unreachable.
  std::vector<double> dist;
  /// parent_vertex[v] / parent_edge[v] describe the tree edge into v
  /// (-1 at the source and at unreachable vertices).
  std::vector<int> parent_vertex;
  std::vector<int> parent_edge;
};

/// A concrete path: vertex sequence (size k+1) and edge sequence (size k).
struct Path {
  std::vector<int> vertices;
  std::vector<int> edges;
  double length = 0.0;
};

/// Single-source Dijkstra over one graph that keeps its tree storage from
/// run to run, so a caller growing many trees (one per trip origin) sizes
/// it once, on the constructing thread. Every Dijkstra entry point below
/// runs on it.
/// Not thread-safe: give each thread its own search.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const Graph& g);

  /// Grows the tree from `source`, settling vertices in order of distance,
  /// and stops once every vertex in `targets` is settled (an empty list
  /// settles the whole component) or the next vertex to settle lies
  /// beyond `max_dist`. A settled vertex's dist and parents are final and
  /// equal Dijkstra(g, source)'s: a full run performs the same heap
  /// operations up to that point, ties included. Vertices left unsettled
  /// keep a tentative distance or +inf.
  void Run(int source, const std::vector<int>& targets = {},
           double max_dist = std::numeric_limits<double>::infinity());

  /// The tree of the last Run.
  const ShortestPathTree& tree() const { return tree_; }
  /// Moves the last Run's tree out; Run may be called again afterwards.
  ShortestPathTree TakeTree() { return std::move(tree_); }

 private:
  const Graph* graph_;
  ShortestPathTree tree_;
  /// pending_[v] != 0 while target v is unsettled; all zero between runs.
  /// Sized by the first run that has targets.
  std::vector<char> pending_;
};

/// Full Dijkstra from `source` using edge lengths.
ShortestPathTree Dijkstra(const Graph& g, int source);

/// Dijkstra limited to vertices within `max_dist` of the source (others keep
/// dist = +inf). Cheaper for localized queries.
ShortestPathTree DijkstraBounded(const Graph& g, int source, double max_dist);

/// Reconstructs the path to `target` from a shortest-path tree; nullopt if
/// the target is unreachable.
std::optional<Path> ExtractPath(const ShortestPathTree& tree, int source,
                                int target);

/// Minimum number of edges from `source` to every vertex (-1 if
/// unreachable).
std::vector<int> BfsHops(const Graph& g, int source);

}  // namespace ctbus::graph

#endif  // CTBUS_GRAPH_SHORTEST_PATH_H_
