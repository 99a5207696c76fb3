// Synthetic commuting-trip generator: a gravity-style demand model with
// hotspot zones. Each trip follows its shortest road path, which is exactly
// how the paper converts raw taxi trip records (pickup/drop-off pairs) into
// network-constrained trips, and only the road-edge trip counts f_e
// (Equation 4) are kept.
//
// Trips are generated origin-batched: one Dijkstra tree per sampled origin
// serves many destinations, so millions of trips aggregate in seconds.
//
// The random stream decides everything but the paths. Each origin's plan
// (the origin and its destinations) is drawn before its tree, which is the
// same stream because no tree consumes a draw, and a trip's success is
// known at draw time: it fails exactly when its destination is its origin
// or lies in another road component (a graph::UnionFind answers that). So
// the trees of a bounded block of plans can grow on `num_threads` workers
// (linalg::ParallelFor), each worker with its own reused search and its
// own integer edge counts, each tree stopping once its destinations are
// settled. The worker counts are added into the road network after the
// last block; integer addition makes f_e bit-identical at any thread count
// and whichever worker grew which tree. 1 runs inline.
#ifndef CTBUS_GEN_TRIP_GENERATOR_H_
#define CTBUS_GEN_TRIP_GENERATOR_H_

#include <cstdint>

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
  std::uint64_t seed = 3;
};

/// Generates trips and adds each one's shortest road path to `road`'s trip
/// counts. Returns the number of trips aggregated (draws whose endpoints
/// coincide or lie in different road components are skipped).
/// `num_threads` bounds the tree fan-out (<= 0 means hardware concurrency);
/// the counts do not depend on it.
std::int64_t GenerateDemand(const TripOptions& options,
                            graph::RoadNetwork* road, int num_threads = 1);

}  // namespace ctbus::gen

#endif  // CTBUS_GEN_TRIP_GENERATOR_H_
