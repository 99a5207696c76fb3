// Unified dataset registration for the planning service: one descriptor
// covers both synthetic gen:: presets and on-disk files (network records
// via io::LoadRoadNetwork / io::LoadTransitNetwork plus an optional trip
// CSV), making PlanningService::RegisterDataset reachable from real
// paper-scale data for the first time. The catalog builds the networks,
// validates every cross-reference (stop -> road vertex, transit edge ->
// road edges, trip -> road path), aggregates trip demand onto the road
// network, and registers the dataset — with its per-dataset snapshot
// retention budget — into the service. The build-and-validate half is
// BuildDatasetNetworks, which `ctbus_snapshot build` shares, so an
// offline-built CTBS snapshot passes exactly the checks a live
// registration does. Failures are reported as
// human-readable messages (file:line diagnostics from the io layer are
// passed through) instead of bare nullopts, and a failed registration
// leaves the service untouched.
//
// Trip CSV format (Equation 4 aggregation): one commuting trip per row,
// written as a sequence of >= 2 road-vertex ids; consecutive vertices
// must be adjacent in the road network, and every road edge the trip
// crosses has its trip count f_e incremented by one. Rows are streamed
// (io::ForEachCsvRow), so a paper-scale trip file costs one row of peak
// memory, not the whole table.
//
// Thread-safety: a catalog is a thin stateless helper over the
// (thread-safe) PlanningService it borrows; distinct catalogs may share
// one service. The service must outlive the catalog.
#ifndef CTBUS_SERVICE_DATASET_CATALOG_H_
#define CTBUS_SERVICE_DATASET_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "graph/road_network.h"
#include "graph/transit_network.h"
#include "service/planning_service.h"
#include "service/snapshot_store.h"

namespace ctbus::service {

/// One dataset's source + budgets. Exactly one source must be set:
/// either `preset` (a gen:: registry name) or the road/transit file pair.
struct DatasetDescriptor {
  /// Service-visible dataset name (PlanRequest::dataset).
  /// ctbus-lint: key-exempt(the dataset name IS the key's dataset field, copied verbatim by MakePrecomputeKey's caller)
  std::string name;

  /// Synthetic source: a gen:: preset registry name (gen::DatasetNames()).
  /// ctbus-lint: key-exempt(source selector; the built networks are keyed by dataset name + snapshot version, not by how they were built)
  std::string preset;
  /// Scale factor for the preset. A value gen::MakeDatasetByName refuses
  /// (not a finite number in (0, 42949]) fails the build; "midtown" has a
  /// fixed size.
  /// ctbus-lint: key-exempt(build-time input baked into the registered networks; requests key on the resulting dataset)
  double preset_scale = 1.0;

  /// File source: io/network_io.h record files.
  /// ctbus-lint: key-exempt(source selector; see preset)
  std::string road_path;
  /// ctbus-lint: key-exempt(source selector; see preset)
  std::string transit_path;
  /// Optional trip CSV aggregated onto the road demand on top of the
  /// road file's embedded trip counts (empty = no extra trips).
  /// ctbus-lint: key-exempt(demand is baked into the registered road network before any request is keyed)
  std::string trips_path;

  /// Optional binary-snapshot accelerator (io/snapshot.h), NOT a source —
  /// the exactly-one-source rule above is unchanged. When set: if the
  /// file exists and decodes cleanly, the networks are loaded from it
  /// (text parsing and trip ingestion are skipped entirely — the
  /// snapshot's trip counts already include any aggregated trips);
  /// otherwise the dataset is built from its source and the snapshot is
  /// written here for the next start. A corrupt or stale-format file is
  /// rebuilt, but a build that cannot *write* the snapshot fails
  /// registration — a configured accelerator that silently never
  /// materializes would hide the misconfiguration forever.
  /// ctbus-lint: key-exempt(on-disk accelerator keyed by content inside the file; the path changes where bytes live, never what a dataset contains)
  std::string snapshot_path;

  /// Snapshot retention for this dataset (defaults keep everything).
  /// ctbus-lint: key-exempt(retention changes what stays resident, never what a key computes to — same contract as the cache budgets)
  SnapshotRetentionPolicy retention;
};

/// What a successful registration built (for logs, benches and tests).
struct DatasetManifest {
  std::string name;
  int road_vertices = 0;
  int road_edges = 0;
  int stops = 0;
  int routes = 0;
  /// Trips aggregated from DatasetDescriptor::trips_path (0 for presets
  /// and for file datasets without a trip CSV).
  std::int64_t trips_ingested = 0;
  /// ApproxBytes of the seed snapshot (road + transit).
  std::size_t snapshot_bytes = 0;
  /// True if the networks came from DatasetDescriptor::snapshot_path
  /// instead of the text source.
  bool loaded_from_snapshot = false;
  /// True if this registration wrote (or rewrote) the snapshot file.
  bool snapshot_saved = false;
};

/// The networks a descriptor's source describes, built and validated.
struct DatasetNetworks {
  graph::RoadNetwork road;
  graph::TransitNetwork transit;
  /// Trips aggregated from DatasetDescriptor::trips_path.
  std::int64_t trips_ingested = 0;
};

/// The build-and-validate half of DatasetCatalog::Register, shared with
/// `ctbus_snapshot build`: the preset, or the road/transit files with
/// every cross-reference checked and the optional trip CSV aggregated.
/// Reads only the source fields (name, snapshot_path and retention are
/// ignored). A preset's trip trees fan out over `num_threads`
/// (gen::MakeDatasetByName; the networks do not depend on it). On failure
/// returns nullopt and sets *error (when non-null) to a diagnostic.
std::optional<DatasetNetworks> BuildDatasetNetworks(
    const DatasetDescriptor& descriptor, std::string* error = nullptr,
    int num_threads = 1);

class DatasetCatalog {
 public:
  /// The service must outlive the catalog.
  explicit DatasetCatalog(PlanningService* service) : service_(service) {}

  /// Builds, validates and registers `descriptor` into the service. A
  /// preset is generated on the service's per-shard thread count.
  /// Returns the manifest on success; on failure returns nullopt, sets
  /// *error (when non-null) to a diagnostic message, and leaves the
  /// service unchanged.
  std::optional<DatasetManifest> Register(const DatasetDescriptor& descriptor,
                                          std::string* error = nullptr);

 private:
  PlanningService* service_;
};

}  // namespace ctbus::service

#endif  // CTBUS_SERVICE_DATASET_CATALOG_H_
