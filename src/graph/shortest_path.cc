#include "graph/shortest_path.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace ctbus::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueItem {
  double dist;
  int vertex;
  bool operator>(const QueueItem& other) const { return dist > other.dist; }
};

using MinHeap =
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>;

ShortestPathTree RunDijkstra(const Graph& g, int source,
                             const std::vector<int>& targets,
                             double max_dist) {
  DijkstraSearch search(g);
  search.Run(source, targets, max_dist);
  return search.TakeTree();
}

}  // namespace

DijkstraSearch::DijkstraSearch(const Graph& g) : graph_(&g) {
  tree_.dist.resize(g.num_vertices());
  tree_.parent_vertex.resize(g.num_vertices());
  tree_.parent_edge.resize(g.num_vertices());
}

void DijkstraSearch::Run(int source, const std::vector<int>& targets,
                         double max_dist) {
  const Graph& g = *graph_;
  assert(source >= 0 && source < g.num_vertices());
  const int n = g.num_vertices();
  tree_.dist.assign(n, kInf);
  tree_.parent_vertex.assign(n, -1);
  tree_.parent_edge.assign(n, -1);
  // Raw pointers and a local heap keep the hot loop's state in registers:
  // with the heap as a member, every push forces the tree's pointers to be
  // reloaded, and a tree took ~40% longer.
  double* const dist = tree_.dist.data();
  int* const parent_vertex = tree_.parent_vertex.data();
  int* const parent_edge = tree_.parent_edge.data();
  if (!targets.empty()) pending_.resize(n, 0);
  char* const pending = pending_.data();
  dist[source] = 0.0;
  int unsettled = 0;
  for (const int t : targets) {
    assert(t >= 0 && t < n);
    if (pending[t] == 0) {
      pending[t] = 1;
      ++unsettled;
    }
  }

  MinHeap heap;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;  // stale entry
    if (unsettled > 0 && pending[v] != 0) {
      pending[v] = 0;
      if (--unsettled == 0) break;
    }
    if (d > max_dist) break;
    for (const Graph::AdjEntry& entry : g.Neighbors(v)) {
      const double candidate = d + g.edge(entry.edge).length;
      if (candidate < dist[entry.vertex]) {
        dist[entry.vertex] = candidate;
        parent_vertex[entry.vertex] = v;
        parent_edge[entry.vertex] = entry.edge;
        heap.push({candidate, entry.vertex});
      }
    }
  }
  for (const int t : targets) pending[t] = 0;  // unreachable targets
}

ShortestPathTree Dijkstra(const Graph& g, int source) {
  return RunDijkstra(g, source, /*targets=*/{}, kInf);
}

ShortestPathTree DijkstraBounded(const Graph& g, int source,
                                 double max_dist) {
  return RunDijkstra(g, source, /*targets=*/{}, max_dist);
}

std::optional<Path> ShortestPathBetween(const Graph& g, int source,
                                        int target) {
  assert(target >= 0 && target < g.num_vertices());
  const ShortestPathTree tree = RunDijkstra(g, source, {target}, kInf);
  return ExtractPath(tree, source, target);
}

std::optional<Path> ExtractPath(const ShortestPathTree& tree, int source,
                                int target) {
  if (tree.dist[target] == kInf) return std::nullopt;
  Path path;
  path.length = tree.dist[target];
  int v = target;
  while (v != source) {
    path.vertices.push_back(v);
    path.edges.push_back(tree.parent_edge[v]);
    v = tree.parent_vertex[v];
  }
  path.vertices.push_back(source);
  std::reverse(path.vertices.begin(), path.vertices.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

std::optional<Path> BidirectionalShortestPath(const Graph& g, int source,
                                              int target) {
  assert(source >= 0 && source < g.num_vertices());
  assert(target >= 0 && target < g.num_vertices());
  if (source == target) {
    Path path;
    path.vertices.push_back(source);
    return path;
  }
  const int n = g.num_vertices();
  // Index 0: forward search from source; 1: backward from target.
  std::vector<double> dist[2] = {std::vector<double>(n, kInf),
                                 std::vector<double>(n, kInf)};
  std::vector<int> parent_vertex[2] = {std::vector<int>(n, -1),
                                       std::vector<int>(n, -1)};
  std::vector<int> parent_edge[2] = {std::vector<int>(n, -1),
                                     std::vector<int>(n, -1)};
  std::vector<bool> settled[2] = {std::vector<bool>(n, false),
                                  std::vector<bool>(n, false)};
  MinHeap heap[2];
  dist[0][source] = 0.0;
  dist[1][target] = 0.0;
  heap[0].push({0.0, source});
  heap[1].push({0.0, target});

  double best = kInf;
  int meet = -1;
  while (!heap[0].empty() || !heap[1].empty()) {
    // Termination: every remaining frontier entry on both sides already
    // exceeds the best meeting point, so no better path can appear (any
    // unexplored meeting vertex costs at least the unsettled side's top).
    if (best < kInf &&
        (heap[0].empty() || heap[0].top().dist > best) &&
        (heap[1].empty() || heap[1].top().dist > best)) {
      break;
    }
    // Expand the side with the smaller frontier distance.
    int side;
    if (heap[0].empty()) {
      side = 1;
    } else if (heap[1].empty()) {
      side = 0;
    } else {
      side = heap[0].top().dist <= heap[1].top().dist ? 0 : 1;
    }
    const auto [d, v] = heap[side].top();
    heap[side].pop();
    if (d > dist[side][v]) continue;
    settled[side][v] = true;
    if (settled[1 - side][v] || dist[1 - side][v] < kInf) {
      const double through = dist[0][v] + dist[1][v];
      if (through < best) {
        best = through;
        meet = v;
      }
    }
    for (const Graph::AdjEntry& entry : g.Neighbors(v)) {
      const double candidate = d + g.edge(entry.edge).length;
      if (candidate < dist[side][entry.vertex]) {
        dist[side][entry.vertex] = candidate;
        parent_vertex[side][entry.vertex] = v;
        parent_edge[side][entry.vertex] = entry.edge;
        heap[side].push({candidate, entry.vertex});
      }
    }
  }
  if (meet < 0) return std::nullopt;

  // Stitch: source -> meet (forward parents), meet -> target (backward).
  Path path;
  path.length = best;
  std::vector<int> forward_vertices;
  std::vector<int> forward_edges;
  for (int v = meet; v != source; v = parent_vertex[0][v]) {
    forward_vertices.push_back(v);
    forward_edges.push_back(parent_edge[0][v]);
  }
  forward_vertices.push_back(source);
  std::reverse(forward_vertices.begin(), forward_vertices.end());
  std::reverse(forward_edges.begin(), forward_edges.end());
  path.vertices = std::move(forward_vertices);
  path.edges = std::move(forward_edges);
  for (int v = meet; v != target;) {
    const int next = parent_vertex[1][v];
    path.edges.push_back(parent_edge[1][v]);
    path.vertices.push_back(next);
    v = next;
  }
  return path;
}

std::vector<int> BfsHops(const Graph& g, int source) {
  assert(source >= 0 && source < g.num_vertices());
  std::vector<int> hops(g.num_vertices(), -1);
  std::queue<int> queue;
  hops[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    for (const Graph::AdjEntry& entry : g.Neighbors(v)) {
      if (hops[entry.vertex] < 0) {
        hops[entry.vertex] = hops[v] + 1;
        queue.push(entry.vertex);
      }
    }
  }
  return hops;
}

}  // namespace ctbus::graph
