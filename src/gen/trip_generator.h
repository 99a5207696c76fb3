// Synthetic commuting-trip generator: a gravity-style demand model with
// hotspot zones. Each trip's trajectory is its shortest road path, which is
// exactly how the paper converts raw taxi trip records (pickup/drop-off
// pairs) into network-constrained trajectories.
//
// Trips are generated origin-batched: one Dijkstra tree per sampled origin
// serves many destinations, so millions of trips aggregate in seconds.
//
// The random stream decides everything but the paths. Each origin's plan
// (the origin and its destinations) is drawn before its tree, which is the
// same stream because no tree consumes a draw, and a trip's success is
// known at draw time: it fails exactly when its destination is its origin
// or lies in another road component (a graph::UnionFind answers that). So
// the trees of a bounded block of plans can grow on `num_threads` threads
// (linalg::ParallelFor, each shard with its own reused search buffers),
// each stopping once its destinations are settled, while the paths still
// reach the caller on the calling thread in draw order. The output is
// bit-identical at any thread count; 1 runs inline with no spawn.
#ifndef CTBUS_GEN_TRIP_GENERATOR_H_
#define CTBUS_GEN_TRIP_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "demand/trajectory.h"
#include "graph/road_network.h"

namespace ctbus::gen {

struct TripOptions {
  int num_trips = 10000;
  /// Trips sharing one sampled origin (one Dijkstra serves them all).
  int trips_per_origin = 20;
  /// Number of hotspot centers (business districts, stations...).
  int num_hotspots = 6;
  /// Gaussian spread of endpoints around a hotspot, meters.
  double hotspot_stddev = 500.0;
  /// Probability that a trip endpoint is hotspot-based (vs uniform).
  double hotspot_weight = 0.7;
  /// Travel speed used for trajectory timestamps (m/s).
  double speed = 8.0;
  std::uint64_t seed = 3;
};

/// Generates trips and returns their trajectories (use for small datasets /
/// tests; memory is O(total path length)). `num_threads` bounds the tree
/// fan-out (<= 0 means hardware concurrency); the result does not depend
/// on it.
std::vector<demand::Trajectory> GenerateTrips(const graph::RoadNetwork& road,
                                              const TripOptions& options,
                                              int num_threads = 1);

/// Generates trips and folds them directly into `road`'s trip counts
/// without materializing trajectories. Returns the number of trips
/// aggregated (trips whose endpoints coincide are skipped). `num_threads`
/// as in GenerateTrips.
std::int64_t GenerateDemand(const TripOptions& options,
                            graph::RoadNetwork* road, int num_threads = 1);

}  // namespace ctbus::gen

#endif  // CTBUS_GEN_TRIP_GENERATOR_H_
