#include "gen/trip_generator.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "graph/geo.h"
#include "graph/shortest_path.h"
#include "graph/spatial_grid.h"
#include "graph/union_find.h"
#include "linalg/parallel_for.h"
#include "linalg/rng.h"

namespace ctbus::gen {

namespace {

// Plans drawn per worker before their trees grow. It keeps each worker
// busy for several trees while the block's plans stay small.
constexpr int kPlansPerWorker = 8;

// One sampled origin and the destinations of its successful trips, in draw
// order; the destinations are `count` entries of the block's list from
// `first`.
struct Plan {
  int origin;
  int first;
  int count;
};

// One ParallelFor worker's state for the whole generation: its search and
// the trip counts of every tree it grew. A shortest path crosses an edge
// at most once, so a count never exceeds num_trips and fits in int.
struct Worker {
  explicit Worker(const graph::Graph& g)
      : search(g), counts(g.num_edges(), 0) {}

  graph::DijkstraSearch search;
  std::vector<int> targets;
  std::vector<int> counts;
};

}  // namespace

std::int64_t GenerateDemand(const TripOptions& options,
                            graph::RoadNetwork* road, int num_threads) {
  assert(options.num_trips >= 0);
  assert(options.trips_per_origin >= 1);
  const graph::Graph& g = road->graph();
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
  std::vector<Worker> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) workers.emplace_back(g);
  std::vector<Plan> plans;
  std::vector<int> destinations;

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
    while (static_cast<int>(plans.size()) < kPlansPerWorker * threads &&
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

    linalg::ParallelFor(
        static_cast<int>(plans.size()), threads,
        [&](int w, int begin, int end) {
          Worker& worker = workers[w];
          const graph::ShortestPathTree& tree = worker.search.tree();
          for (int p = begin; p < end; ++p) {
            const Plan& plan = plans[p];
            if (plan.count == 0) continue;
            worker.targets.assign(destinations.begin() + plan.first,
                                  destinations.begin() + plan.first +
                                      plan.count);
            worker.search.Run(plan.origin, worker.targets);
            for (const int target : worker.targets) {
              for (int v = target; v != plan.origin;
                   v = tree.parent_vertex[v]) {
                ++worker.counts[tree.parent_edge[v]];
              }
            }
          }
        });
  }

  for (const Worker& worker : workers) {
    for (int e = 0; e < g.num_edges(); ++e) {
      road->AddTripCount(e, worker.counts[e]);
    }
  }
  return generated;
}

}  // namespace ctbus::gen
