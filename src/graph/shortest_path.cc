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

// Kept out of DijkstraSearch::Run on purpose: inlined there, the sift-down
// and sift-up loops crowd the hot loop's registers and a tree took ~40%
// longer (GCC inlines them once Run is their only caller).
[[gnu::noinline]] void HeapPush(MinHeap* heap, QueueItem item) {
  heap->push(item);
}

[[gnu::noinline]] QueueItem HeapPop(MinHeap* heap) {
  const QueueItem top = heap->top();
  heap->pop();
  return top;
}

ShortestPathTree RunDijkstra(const Graph& g, int source, double max_dist) {
  DijkstraSearch search(g);
  search.Run(source, /*targets=*/{}, max_dist);
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
  HeapPush(&heap, {0.0, source});
  while (!heap.empty()) {
    const auto [d, v] = HeapPop(&heap);
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
        HeapPush(&heap, {candidate, entry.vertex});
      }
    }
  }
  for (const int t : targets) pending[t] = 0;  // unreachable targets
}

ShortestPathTree Dijkstra(const Graph& g, int source) {
  return RunDijkstra(g, source, kInf);
}

ShortestPathTree DijkstraBounded(const Graph& g, int source,
                                 double max_dist) {
  return RunDijkstra(g, source, max_dist);
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
