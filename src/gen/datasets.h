// Canned dataset presets mirroring the paper's evaluation cities (Table 5)
// at CI-friendly scale. Every preset is deterministic and carries the demand
// already aggregated onto the road network.
//
// Scale note (see DESIGN.md): the paper's NYC has 264k road vertices and
// 12.3k stops; the presets default to roughly 1/20 of that so the entire
// bench suite reruns in minutes. Pass `scale` > 1 (or set the CTBUS_SCALE
// environment variable in the benches) to grow toward paper scale.
//
// `num_threads` (default 1; <= 0 means hardware concurrency) bounds the trip
// generator's tree fan-out (gen/trip_generator.h). A preset is
// bit-identical at any value; the planning service passes its worker count.
#ifndef CTBUS_GEN_DATASETS_H_
#define CTBUS_GEN_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/road_network.h"
#include "graph/transit_network.h"

namespace ctbus::gen {

/// A fully assembled evaluation dataset: road network with aggregated
/// demand, transit network, and bookkeeping for Table 5.
struct Dataset {
  std::string name;
  graph::RoadNetwork road;
  graph::TransitNetwork transit;
  /// Number of trips aggregated into the road demand (|D| in Table 5).
  std::int64_t num_trips = 0;
};

/// Tiny fixture (~100 road vertices, 4 routes) for unit tests and the
/// quickstart example. Finishes any algorithm in milliseconds.
Dataset MakeMidtown(int num_threads = 1);

/// Chicago-like preset: compact, lakeside-biased route structure.
Dataset MakeChicagoLike(double scale = 1.0, int num_threads = 1);

/// NYC-like preset: larger, denser, more routes.
Dataset MakeNycLike(double scale = 1.0, int num_threads = 1);

/// The five NYC boroughs of Table 6, as independent sub-city presets with
/// distinct densities and route counts.
enum class Borough {
  kManhattan,
  kQueens,
  kBrooklyn,
  kStatenIsland,
  kBronx,
};

Dataset MakeBorough(Borough borough, double scale = 1.0,
                    int num_threads = 1);

/// All five boroughs in Table 6 order.
std::vector<Dataset> AllBoroughs(double scale = 1.0);

/// Human-readable name ("Manhattan", ...).
std::string BoroughName(Borough borough);

/// Registry of every preset by name, for request-driven construction (the
/// planning service resolves PlanRequest::dataset through this).
/// Names: "midtown", "chicago", "nyc", "manhattan", "queens", "brooklyn",
/// "staten_island", "bronx".
std::vector<std::string> DatasetNames();

/// True if `name` is a registry name.
bool HasDataset(const std::string& name);

/// Builds the named preset. Throws std::invalid_argument, before anything
/// is built, for an unknown name or a `scale` that is not a finite number
/// in (0, 42949]: the bound keeps every scaled count (chicago's 50000 trips
/// at scale 1 is the largest) within int. "midtown" has a fixed size and
/// otherwise ignores `scale`.
Dataset MakeDatasetByName(const std::string& name, double scale = 1.0,
                          int num_threads = 1);

}  // namespace ctbus::gen

#endif  // CTBUS_GEN_DATASETS_H_
