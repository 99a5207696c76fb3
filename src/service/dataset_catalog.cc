#include "service/dataset_catalog.h"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "io/csv.h"
#include "io/network_io.h"
#include "io/parse.h"
#include "io/snapshot.h"

namespace ctbus::service {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Streams the trip CSV into the road network's trip counts. Each row is
/// one trip: a sequence of >= 2 road-vertex ids whose consecutive pairs
/// must be road-adjacent. Returns false + message on any malformed row.
bool IngestTrips(const std::string& path, graph::RoadNetwork* road,
                 std::int64_t* trips, std::string* error) {
  std::string row_error;
  const bool ok = io::ForEachCsvRow(
      path,
      [&](std::vector<std::string>&& fields, std::size_t line_number) {
        const auto fail = [&](const std::string& reason) {
          row_error = io::LineError(path, line_number, reason);
          return false;
        };
        if (fields.size() < 2) {
          return fail("a trip needs at least two road vertices");
        }
        int prev = -1;
        std::vector<int> edges;
        edges.reserve(fields.size() - 1);
        for (std::size_t i = 0; i < fields.size(); ++i) {
          int vertex = 0;
          if (!io::ParseInt(fields[i], &vertex)) {
            return fail("'" + fields[i] + "' is not a road-vertex id");
          }
          if (vertex < 0 || vertex >= road->graph().num_vertices()) {
            return fail("road vertex " + std::to_string(vertex) +
                        " out of range");
          }
          if (i > 0) {
            const auto edge = road->graph().EdgeBetween(prev, vertex);
            if (!edge.has_value()) {
              return fail("vertices " + std::to_string(prev) + " and " +
                          std::to_string(vertex) +
                          " are not adjacent in the road network");
            }
            edges.push_back(*edge);
          }
          prev = vertex;
        }
        for (int e : edges) road->AddTripCount(e);
        ++*trips;
        return true;
      },
      error);
  if (!ok) return false;
  if (!row_error.empty()) return Fail(error, row_error);
  return true;
}

/// Cross-checks the loaded transit network against the road network, so
/// planning never indexes out of range: stop affiliations must name road
/// vertices and realized transit edges must name road edges.
bool ValidateCrossReferences(const graph::RoadNetwork& road,
                             const graph::TransitNetwork& transit,
                             const std::string& transit_path,
                             std::string* error) {
  for (int s = 0; s < transit.num_stops(); ++s) {
    const int rv = transit.stop(s).road_vertex;
    if (rv < 0 || rv >= road.graph().num_vertices()) {
      return Fail(error, transit_path + ": stop " + std::to_string(s) +
                             " is affiliated with road vertex " +
                             std::to_string(rv) + ", which does not exist");
    }
  }
  for (int e = 0; e < transit.num_edges(); ++e) {
    for (int re : transit.edge(e).road_edges) {
      if (re < 0 || re >= road.graph().num_edges()) {
        return Fail(error, transit_path + ": transit edge " +
                               std::to_string(e) + " crosses road edge " +
                               std::to_string(re) + ", which does not exist");
      }
    }
  }
  return true;
}

/// The exactly-one-source rule shared by Register and BuildDatasetNetworks.
bool CheckOneSource(const DatasetDescriptor& descriptor, std::string* error) {
  const bool from_preset = !descriptor.preset.empty();
  const bool from_files =
      !descriptor.road_path.empty() || !descriptor.transit_path.empty();
  if (from_preset == from_files) {
    return Fail(error,
                "exactly one source required: either `preset` or the "
                "road_path + transit_path file pair");
  }
  if (from_files &&
      (descriptor.road_path.empty() || descriptor.transit_path.empty())) {
    return Fail(error, "file datasets need both road_path and transit_path");
  }
  return true;
}

}  // namespace

std::optional<DatasetNetworks> BuildDatasetNetworks(
    const DatasetDescriptor& descriptor, std::string* error,
    int num_threads) {
  if (!CheckOneSource(descriptor, error)) return std::nullopt;
  DatasetNetworks networks;
  if (!descriptor.preset.empty()) {
    if (!gen::HasDataset(descriptor.preset)) {
      Fail(error, "unknown preset '" + descriptor.preset +
                      "' (see gen::DatasetNames())");
      return std::nullopt;
    }
    gen::Dataset dataset;
    try {
      dataset = gen::MakeDatasetByName(descriptor.preset,
                                       descriptor.preset_scale, num_threads);
    } catch (const std::invalid_argument& e) {
      Fail(error, e.what());
      return std::nullopt;
    }
    networks.road = std::move(dataset.road);
    networks.transit = std::move(dataset.transit);
    return networks;
  }
  std::string load_error;
  auto road = io::LoadRoadNetwork(descriptor.road_path, &load_error);
  if (!road.has_value()) {
    Fail(error, "road network: " + load_error);
    return std::nullopt;
  }
  auto transit = io::LoadTransitNetwork(descriptor.transit_path, &load_error);
  if (!transit.has_value()) {
    Fail(error, "transit network: " + load_error);
    return std::nullopt;
  }
  networks.road = std::move(*road);
  networks.transit = std::move(*transit);
  if (!ValidateCrossReferences(networks.road, networks.transit,
                               descriptor.transit_path, error)) {
    return std::nullopt;
  }
  if (!descriptor.trips_path.empty() &&
      !IngestTrips(descriptor.trips_path, &networks.road,
                   &networks.trips_ingested, &load_error)) {
    Fail(error, "trips: " + load_error);
    return std::nullopt;
  }
  return networks;
}

std::optional<DatasetManifest> DatasetCatalog::Register(
    const DatasetDescriptor& descriptor, std::string* error) {
  const std::string prefix = "dataset '" + descriptor.name + "': ";
  if (descriptor.name.empty()) {
    Fail(error, "dataset name must not be empty");
    return std::nullopt;
  }
  if (service_->HasDataset(descriptor.name)) {
    Fail(error, prefix + "already registered");
    return std::nullopt;
  }
  std::string build_error;
  if (!CheckOneSource(descriptor, &build_error)) {
    Fail(error, prefix + build_error);
    return std::nullopt;
  }

  DatasetNetworks networks;
  bool loaded_from_snapshot = false;
  bool snapshot_saved = false;
  // The binary accelerator first: a valid snapshot carries the networks
  // with trip demand already aggregated, so the whole source build
  // (parse + cross-reference validation + trip ingestion) is skipped. A
  // missing, corrupt, or stale-format file falls through to the source
  // build — the snapshot is a cache of the source, never a source itself.
  if (!descriptor.snapshot_path.empty()) {
    if (auto snapshot = io::LoadSnapshot(descriptor.snapshot_path)) {
      networks.road = std::move(snapshot->road);
      networks.transit = std::move(snapshot->transit);
      loaded_from_snapshot = true;
    }
  }
  if (loaded_from_snapshot) {
    // Decode already bounds every cross-reference; re-assert the catalog's
    // own contract anyway so this path can never drift weaker than text.
    if (!ValidateCrossReferences(networks.road, networks.transit,
                                 descriptor.snapshot_path, &build_error)) {
      Fail(error, prefix + build_error);
      return std::nullopt;
    }
  } else if (auto built = BuildDatasetNetworks(descriptor, &build_error,
                                               service_->num_threads())) {
    networks = std::move(*built);
  } else {
    Fail(error, prefix + build_error);
    return std::nullopt;
  }

  if (!descriptor.snapshot_path.empty() && !loaded_from_snapshot) {
    // Built from source with an accelerator configured: write it now so
    // the next start loads in milliseconds. A write failure fails
    // registration: a snapshot_path that can never materialize is a
    // misconfiguration, not a warning.
    io::Snapshot snapshot;
    snapshot.road = networks.road;
    snapshot.transit = networks.transit;
    std::string save_error;
    if (!io::SaveSnapshot(snapshot, descriptor.snapshot_path, &save_error)) {
      Fail(error, prefix + "snapshot: " + save_error);
      return std::nullopt;
    }
    snapshot_saved = true;
  }

  DatasetManifest manifest;
  manifest.name = descriptor.name;
  manifest.road_vertices = networks.road.graph().num_vertices();
  manifest.road_edges = networks.road.graph().num_edges();
  manifest.stops = networks.transit.num_stops();
  manifest.routes = networks.transit.num_active_routes();
  manifest.trips_ingested = networks.trips_ingested;
  manifest.snapshot_bytes =
      networks.road.ApproxBytes() + networks.transit.ApproxBytes();
  manifest.loaded_from_snapshot = loaded_from_snapshot;
  manifest.snapshot_saved = snapshot_saved;
  try {
    service_->RegisterDataset(descriptor.name, std::move(networks.road),
                              std::move(networks.transit),
                              descriptor.retention);
  } catch (const std::exception& e) {
    Fail(error, prefix + e.what());
    return std::nullopt;
  }
  return manifest;
}

}  // namespace ctbus::service
