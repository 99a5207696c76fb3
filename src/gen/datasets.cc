#include "gen/datasets.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "gen/city_generator.h"
#include "gen/transit_generator.h"
#include "gen/trip_generator.h"

namespace ctbus::gen {

namespace {

Dataset Assemble(std::string name, const CityOptions& city,
                 const TransitOptions& transit_options,
                 const TripOptions& trip_options, int num_threads) {
  Dataset dataset;
  dataset.name = std::move(name);
  dataset.road = GenerateCity(city);
  dataset.transit = GenerateTransit(dataset.road, transit_options);
  dataset.num_trips =
      GenerateDemand(trip_options, &dataset.road, num_threads);
  return dataset;
}

// The largest count any preset scales (chicago's trips). Scaled checks
// it, so MakeDatasetByName's scale bound keeps every scaled count in int.
constexpr int kLargestScaledBase = 50000;
constexpr double kMaxScale =
    std::numeric_limits<int>::max() / kLargestScaledBase;

int Scaled(int base, double scale) {
  assert(base <= kLargestScaledBase);
  return std::max(2, static_cast<int>(std::lround(base * scale)));
}

}  // namespace

Dataset MakeMidtown(int num_threads) {
  CityOptions city;
  city.grid_width = 10;
  city.grid_height = 10;
  city.edge_keep_probability = 0.95;
  city.seed = 101;

  TransitOptions transit;
  transit.num_routes = 4;
  transit.stop_spacing_edges = 2;
  transit.max_stops_per_route = 10;
  transit.num_hubs = 2;
  transit.seed = 102;

  TripOptions trips;
  trips.num_trips = 400;
  trips.num_hotspots = 2;
  trips.hotspot_stddev = 200.0;
  trips.seed = 103;

  return Assemble("midtown", city, transit, trips, num_threads);
}

Dataset MakeChicagoLike(double scale, int num_threads) {
  const double side = std::sqrt(scale);
  CityOptions city;
  city.grid_width = Scaled(76, side);
  city.grid_height = Scaled(56, side);
  city.block_size = 130.0;
  city.edge_keep_probability = 0.92;
  city.diagonal_probability = 0.05;
  city.seed = 201;

  TransitOptions transit;
  transit.num_routes = Scaled(56, scale);
  transit.stop_spacing_edges = 3;
  transit.max_stops_per_route = 42;
  transit.num_hubs = 6;
  transit.hub_bias = 0.55;
  transit.seed = 202;

  TripOptions trips;
  trips.num_trips = Scaled(50000, scale);
  trips.num_hotspots = 6;
  trips.hotspot_stddev = 700.0;
  trips.hotspot_weight = 0.75;
  trips.seed = 203;

  return Assemble("chicago_like", city, transit, trips, num_threads);
}

Dataset MakeNycLike(double scale, int num_threads) {
  const double side = std::sqrt(scale);
  CityOptions city;
  city.grid_width = Scaled(88, side);
  city.grid_height = Scaled(64, side);
  city.block_size = 110.0;
  city.edge_keep_probability = 0.93;
  city.diagonal_probability = 0.03;
  city.seed = 301;

  TransitOptions transit;
  transit.num_routes = Scaled(96, scale);
  transit.stop_spacing_edges = 3;
  transit.max_stops_per_route = 34;
  transit.num_hubs = 9;
  transit.hub_bias = 0.5;
  transit.seed = 302;

  TripOptions trips;
  trips.num_trips = Scaled(40000, scale);
  trips.num_hotspots = 9;
  trips.hotspot_stddev = 600.0;
  trips.hotspot_weight = 0.7;
  trips.seed = 303;

  return Assemble("nyc_like", city, transit, trips, num_threads);
}

Dataset MakeBorough(Borough borough, double scale, int num_threads) {
  const double side = std::sqrt(scale);
  CityOptions city;
  TransitOptions transit;
  TripOptions trips;
  std::string name = BoroughName(borough);
  switch (borough) {
    case Borough::kManhattan:
      // Dense, narrow, transit-saturated: many routes on a small grid, so
      // connectivity gains are hard to find (Insight 3).
      city.grid_width = 14;
      city.grid_height = 56;
      city.block_size = 90.0;
      city.seed = 401;
      transit.num_routes = Scaled(26, scale);
      transit.stop_spacing_edges = 2;
      transit.num_hubs = 6;
      transit.seed = 402;
      trips.num_trips = Scaled(16000, scale);
      trips.num_hotspots = 5;
      trips.seed = 403;
      break;
    case Borough::kQueens:
      // Sprawling with sparse coverage.
      city.grid_width = Scaled(52, side);
      city.grid_height = Scaled(40, side);
      city.block_size = 150.0;
      city.seed = 411;
      transit.num_routes = Scaled(22, scale);
      transit.stop_spacing_edges = 4;
      transit.num_hubs = 4;
      transit.hub_bias = 0.5;
      transit.seed = 412;
      trips.num_trips = Scaled(14000, scale);
      trips.num_hotspots = 6;
      trips.hotspot_stddev = 900.0;
      trips.seed = 413;
      break;
    case Borough::kBrooklyn:
      city.grid_width = Scaled(44, side);
      city.grid_height = Scaled(38, side);
      city.block_size = 120.0;
      city.seed = 421;
      transit.num_routes = Scaled(24, scale);
      transit.stop_spacing_edges = 3;
      transit.num_hubs = 5;
      transit.seed = 422;
      trips.num_trips = Scaled(15000, scale);
      trips.num_hotspots = 5;
      trips.seed = 423;
      break;
    case Borough::kStatenIsland:
      // Small, bus-dependent, few routes.
      city.grid_width = Scaled(30, side);
      city.grid_height = Scaled(26, side);
      city.block_size = 170.0;
      city.edge_keep_probability = 0.90;
      city.seed = 431;
      transit.num_routes = Scaled(14, scale);
      transit.stop_spacing_edges = 3;
      transit.num_hubs = 3;
      transit.seed = 432;
      trips.num_trips = Scaled(8000, scale);
      trips.num_hotspots = 3;
      trips.seed = 433;
      break;
    case Borough::kBronx:
      // North-south corridors, weak east-west links: route planning should
      // find high-transfer-saving circles (Insight 3).
      city.grid_width = Scaled(34, side);
      city.grid_height = Scaled(30, side);
      city.block_size = 130.0;
      city.edge_keep_probability = 0.90;
      city.seed = 441;
      transit.num_routes = Scaled(18, scale);
      transit.stop_spacing_edges = 3;
      transit.num_hubs = 3;
      transit.hub_bias = 0.75;
      transit.seed = 442;
      trips.num_trips = Scaled(10000, scale);
      trips.num_hotspots = 4;
      trips.seed = 443;
      break;
  }
  return Assemble(std::move(name), city, transit, trips, num_threads);
}

std::vector<Dataset> AllBoroughs(double scale) {
  std::vector<Dataset> boroughs;
  boroughs.push_back(MakeBorough(Borough::kManhattan, scale));
  boroughs.push_back(MakeBorough(Borough::kQueens, scale));
  boroughs.push_back(MakeBorough(Borough::kBrooklyn, scale));
  boroughs.push_back(MakeBorough(Borough::kStatenIsland, scale));
  boroughs.push_back(MakeBorough(Borough::kBronx, scale));
  return boroughs;
}

std::string BoroughName(Borough borough) {
  switch (borough) {
    case Borough::kManhattan:
      return "Manhattan";
    case Borough::kQueens:
      return "Queens";
    case Borough::kBrooklyn:
      return "Brooklyn";
    case Borough::kStatenIsland:
      return "Staten Island";
    case Borough::kBronx:
      return "Bronx";
  }
  return "unknown";
}

namespace {

// Single source of truth for the preset registry: DatasetNames,
// HasDataset, and MakeDatasetByName all read this table.
struct PresetEntry {
  const char* name;
  Dataset (*make)(double scale, int num_threads);
};

constexpr PresetEntry kPresets[] = {
    {"midtown", [](double, int threads) { return MakeMidtown(threads); }},
    {"chicago", MakeChicagoLike},
    {"nyc", MakeNycLike},
    {"manhattan",
     [](double scale, int threads) {
       return MakeBorough(Borough::kManhattan, scale, threads);
     }},
    {"queens",
     [](double scale, int threads) {
       return MakeBorough(Borough::kQueens, scale, threads);
     }},
    {"brooklyn",
     [](double scale, int threads) {
       return MakeBorough(Borough::kBrooklyn, scale, threads);
     }},
    {"staten_island",
     [](double scale, int threads) {
       return MakeBorough(Borough::kStatenIsland, scale, threads);
     }},
    {"bronx",
     [](double scale, int threads) {
       return MakeBorough(Borough::kBronx, scale, threads);
     }},
};

}  // namespace

std::vector<std::string> DatasetNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kPresets));
  for (const PresetEntry& preset : kPresets) names.push_back(preset.name);
  return names;
}

bool HasDataset(const std::string& name) {
  for (const PresetEntry& preset : kPresets) {
    if (name == preset.name) return true;
  }
  return false;
}

Dataset MakeDatasetByName(const std::string& name, double scale,
                          int num_threads) {
  // Written so that NaN fails it too.
  if (!(scale > 0.0 && scale <= kMaxScale)) {
    char text[64];
    std::snprintf(text, sizeof(text), "%g", scale);
    throw std::invalid_argument("preset scale " + std::string(text) +
                                " is not in (0, " +
                                std::to_string(static_cast<int>(kMaxScale)) +
                                "]");
  }
  for (const PresetEntry& preset : kPresets) {
    if (name == preset.name) return preset.make(scale, num_threads);
  }
  throw std::invalid_argument("unknown dataset preset: " + name);
}

}  // namespace ctbus::gen
