#include "gen/trip_generator.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <vector>

#include "graph/geo.h"
#include "graph/shortest_path.h"
#include "graph/spatial_grid.h"
#include "graph/union_find.h"
#include "linalg/parallel_for.h"
#include "linalg/rng.h"

namespace ctbus::gen {

namespace {

// Plans drawn per shard before their trees grow. It bounds the paths a
// block holds (about 25 KB per shard at chicago 1.0) and keeps each
// spawned thread busy for several trees.
constexpr int kPlansPerShard = 8;

// One sampled origin and the destinations of its successful trips, in draw
// order; the destinations are `count` entries of the block's list from
// `first`.
struct Plan {
  int origin;
  int first;
  int count;
};

// One shard's state for the whole generation: its search, and the trips
// of the plans it grew in the current block, in draw order. A trip keeps
// only its origin, edges and length; the calling thread walks the edges
// back into vertices, so a spawned thread holds half the bytes.
struct Shard {
  explicit Shard(const graph::Graph& g) : search(g) {}

  void Clear() {
    edges.clear();
    origins.clear();
    num_edges.clear();
    lengths.clear();
  }

  // Appends the tree path to a settled `target`.
  void AppendTrip(int origin, int target) {
    const graph::ShortestPathTree& tree = search.tree();
    const std::size_t begin = edges.size();
    for (int v = target; v != origin; v = tree.parent_vertex[v]) {
      edges.push_back(tree.parent_edge[v]);
    }
    std::reverse(edges.begin() + begin, edges.end());
    origins.push_back(origin);
    num_edges.push_back(static_cast<int>(edges.size() - begin));
    lengths.push_back(tree.dist[target]);
  }

  graph::DijkstraSearch search;
  std::vector<int> targets;
  std::vector<int> edges;  // trip i: num_edges[i] entries
  std::vector<int> origins;
  std::vector<int> num_edges;
  std::vector<double> lengths;
};

// Shared sampling machinery for both entry points. Calls `sink` on the
// calling thread, in draw order, with the shortest-path tree's path for
// every generated trip.
std::int64_t ForEachTrip(
    const graph::RoadNetwork& road, const TripOptions& options,
    int num_threads, const std::function<void(const graph::Path&)>& sink) {
  assert(options.num_trips >= 0);
  assert(options.trips_per_origin >= 1);
  const graph::Graph& g = road.graph();
  if (g.num_vertices() < 2 || options.num_trips == 0) return 0;
  linalg::Rng rng(options.seed);

  std::vector<graph::Point> positions;
  positions.reserve(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) {
    positions.push_back(g.position(v));
  }
  // Cell size ~ hotspot spread keeps nearest-vertex queries cheap.
  const graph::SpatialGrid index(positions,
                                 std::max(50.0, options.hotspot_stddev / 2));

  std::vector<graph::Point> hotspots;
  for (int i = 0; i < options.num_hotspots; ++i) {
    hotspots.push_back(positions[rng.NextIndex(g.num_vertices())]);
  }
  auto sample_vertex = [&]() -> int {
    if (!hotspots.empty() && rng.NextBool(options.hotspot_weight)) {
      const graph::Point& center = hotspots[rng.NextIndex(hotspots.size())];
      const graph::Point p{
          center.x + rng.NextGaussian() * options.hotspot_stddev,
          center.y + rng.NextGaussian() * options.hotspot_stddev};
      return index.Nearest(p);
    }
    return static_cast<int>(rng.NextIndex(g.num_vertices()));
  };

  // A trip has a path exactly when its destination is in its origin's road
  // component, and a non-empty one exactly when the two differ.
  graph::UnionFind components(g.num_vertices());
  for (int e = 0; e < g.num_edges(); ++e) {
    components.Union(g.edge(e).u, g.edge(e).v);
  }

  const int threads = linalg::ResolveThreadCount(num_threads);
  std::vector<Shard> shards;
  shards.reserve(threads);
  for (int s = 0; s < threads; ++s) shards.emplace_back(g);
  std::vector<Plan> plans;
  std::vector<int> destinations;
  graph::Path trip;

  std::int64_t generated = 0;
  std::int64_t failures = 0;
  // On heavily disconnected inputs most samples fail; bail out rather than
  // spin forever.
  const std::int64_t failure_budget = 10 * options.num_trips + 1000;
  while (generated < options.num_trips && failures < failure_budget) {
    // Draw a block of plans, exactly as the one-origin-at-a-time loop
    // would.
    plans.clear();
    destinations.clear();
    while (static_cast<int>(plans.size()) < kPlansPerShard * threads &&
           generated < options.num_trips && failures < failure_budget) {
      Plan plan{sample_vertex(), static_cast<int>(destinations.size()), 0};
      const int batch = static_cast<int>(
          std::min<std::int64_t>(options.trips_per_origin,
                                 options.num_trips - generated));
      for (int i = 0; i < batch; ++i) {
        const int destination = sample_vertex();
        if (destination == plan.origin ||
            !components.Connected(plan.origin, destination)) {
          ++failures;
          continue;
        }
        destinations.push_back(destination);
        ++plan.count;
        ++generated;
      }
      plans.push_back(plan);
    }

    for (Shard& shard : shards) shard.Clear();
    linalg::ParallelFor(
        static_cast<int>(plans.size()), threads,
        [&](int s, int begin, int end) {
          Shard& shard = shards[s];
          for (int p = begin; p < end; ++p) {
            const Plan& plan = plans[p];
            if (plan.count == 0) continue;
            shard.targets.assign(destinations.begin() + plan.first,
                                 destinations.begin() + plan.first +
                                     plan.count);
            shard.search.Run(plan.origin, shard.targets);
            for (const int target : shard.targets) {
              shard.AppendTrip(plan.origin, target);
            }
          }
        });

    // Shard s grew the s-th contiguous run of plans, so shard order is
    // draw order. The vertices are graph::ExtractPath's: each tree edge
    // leads from its parent to its child.
    for (const Shard& shard : shards) {
      std::size_t edge_at = 0;
      for (std::size_t i = 0; i < shard.num_edges.size(); ++i) {
        trip.edges.assign(shard.edges.begin() + edge_at,
                          shard.edges.begin() + edge_at + shard.num_edges[i]);
        edge_at += shard.num_edges[i];
        trip.vertices.assign(1, shard.origins[i]);
        for (const int e : trip.edges) {
          trip.vertices.push_back(g.OtherEnd(e, trip.vertices.back()));
        }
        trip.length = shard.lengths[i];
        sink(trip);
      }
    }
  }
  return generated;
}

}  // namespace

std::vector<demand::Trajectory> GenerateTrips(const graph::RoadNetwork& road,
                                              const TripOptions& options,
                                              int num_threads) {
  std::vector<demand::Trajectory> trajectories;
  trajectories.reserve(options.num_trips);
  double start_time = 0.0;
  ForEachTrip(road, options, num_threads, [&](const graph::Path& path) {
    auto t = demand::Trajectory::FromVertices(road.graph(), path.vertices,
                                              start_time, options.speed);
    assert(t.has_value());
    trajectories.push_back(std::move(*t));
    start_time += 60.0;  // trips depart a minute apart
  });
  return trajectories;
}

std::int64_t GenerateDemand(const TripOptions& options,
                            graph::RoadNetwork* road, int num_threads) {
  return ForEachTrip(*road, options, num_threads,
                     [road](const graph::Path& path) {
                       for (int e : path.edges) road->AddTripCount(e);
                     });
}

}  // namespace ctbus::gen
