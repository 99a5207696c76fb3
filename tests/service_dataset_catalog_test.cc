// DatasetCatalog: the io -> catalog -> service pipeline. Registers the
// committed tests/data fixture dataset (network record files + trip CSV),
// serves Submit -> Commit -> warm-start queries end-to-end over it,
// verifies trip-demand aggregation and the golden GeoJSON export, checks
// that registration failures surface as messages (not bare nullopts), and
// exercises the memory-governance acceptance criterion: tight cache /
// retention budgets change stats, never planning results.
#include "service/dataset_catalog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/geojson.h"
#include "io/network_io.h"
#include "service/planning_service.h"

#ifndef CTBUS_TEST_DATA_DIR
#define CTBUS_TEST_DATA_DIR "tests/data"
#endif

namespace ctbus::service {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(CTBUS_TEST_DATA_DIR) + "/" + name;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The committed 5x5 grid fixture: stops sit 800 m apart, so tau = 900
/// yields candidate edges between neighboring stops.
DatasetDescriptor GridDescriptor(const std::string& name = "grid") {
  DatasetDescriptor descriptor;
  descriptor.name = name;
  descriptor.road_path = DataPath("grid_road.tsv");
  descriptor.transit_path = DataPath("grid_transit.tsv");
  descriptor.trips_path = DataPath("grid_trips.csv");
  return descriptor;
}

core::CtBusOptions GridOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.tau = 900.0;
  options.seed_count = 100;
  options.max_iterations = 500;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8,
                              /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

PlanRequest GridRequest(const std::string& dataset = "grid") {
  PlanRequest request;
  request.dataset = dataset;
  request.options = GridOptions();
  request.planner = core::Planner::kEtaPre;
  return request;
}

TEST(DatasetCatalogTest, RegistersAPresetByName) {
  PlanningService service(ServiceOptions{});
  DatasetCatalog catalog(&service);
  DatasetDescriptor descriptor;
  descriptor.name = "mid";
  descriptor.preset = "midtown";
  std::string error;
  const auto manifest = catalog.Register(descriptor, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_TRUE(service.HasDataset("mid"));
  EXPECT_GT(manifest->stops, 0);
  EXPECT_GT(manifest->road_vertices, 0);
  EXPECT_GT(manifest->snapshot_bytes, 0u);
  EXPECT_EQ(manifest->trips_ingested, 0);  // presets embed their demand
}

TEST(DatasetCatalogTest, FileRoundTripServesCommitAndWarmStartQueries) {
  ServiceOptions service_options;
  service_options.cache_capacity = 8;
  PlanningService service(service_options);
  DatasetCatalog catalog(&service);
  std::string error;
  const auto manifest = catalog.Register(GridDescriptor(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->road_vertices, 25);
  EXPECT_EQ(manifest->road_edges, 40);
  EXPECT_EQ(manifest->stops, 9);
  EXPECT_EQ(manifest->routes, 2);
  EXPECT_EQ(manifest->trips_ingested, 12);

  // Serve: plan against the seed version, commit, replan at latest with
  // a warm-started precompute.
  const ServiceResult first = service.Plan(GridRequest());
  ASSERT_TRUE(first.plan.found);
  EXPECT_EQ(first.stats.snapshot_version, 1u);
  EXPECT_FALSE(first.stats.precompute_cache_hit);

  const std::uint64_t v2 = service.Commit(first);
  EXPECT_EQ(v2, 2u);

  const ServiceResult second = service.Plan(GridRequest());
  ASSERT_TRUE(second.plan.found);
  EXPECT_EQ(second.stats.snapshot_version, 2u);
  EXPECT_TRUE(second.stats.precompute_derived);  // warm-started from v1
  // Every candidate is either recomputed (touched by the commit) or
  // carried; on a 9-stop city the commit may touch them all.
  EXPECT_EQ(second.stats.precompute.num_increments_recomputed +
                second.stats.precompute.num_increments_carried,
            second.stats.precompute.num_new_edges);
}

TEST(DatasetCatalogTest, TripCsvAggregatesOntoTheRoadDemand) {
  PlanningService service(ServiceOptions{});
  DatasetCatalog catalog(&service);
  std::string error;
  ASSERT_TRUE(catalog.Register(GridDescriptor(), &error).has_value())
      << error;
  // Embedded counts: 3 trips on each of the 4 bottom-row edges = 12.
  // Trip CSV: 8 trips crossing 4 edges + 4 trips crossing 3 edges = 44.
  const auto snapshot = service.Snapshot("grid");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->road->TotalTripCount(), 12 + 44);
}

TEST(DatasetCatalogTest, GoldenGeoJsonExportMatchesTheCommittedFixture) {
  std::string error;
  const auto road = io::LoadRoadNetwork(DataPath("grid_road.tsv"), &error);
  ASSERT_TRUE(road.has_value()) << error;
  const auto transit =
      io::LoadTransitNetwork(DataPath("grid_transit.tsv"), &error);
  ASSERT_TRUE(transit.has_value()) << error;
  io::GeoJsonWriter writer;
  writer.AddRoadNetwork(*road);
  writer.AddTransitNetwork(*transit, /*include_routes=*/true);

  std::ifstream golden(DataPath("grid_network.geojson"));
  ASSERT_TRUE(golden.good());
  std::stringstream content;
  content << golden.rdbuf();
  EXPECT_EQ(writer.ToString() + "\n", content.str());
}

TEST(DatasetCatalogTest, ReportsLoadFailuresAsMessages) {
  PlanningService service(ServiceOptions{});
  DatasetCatalog catalog(&service);
  std::string error;

  // Missing file.
  DatasetDescriptor missing = GridDescriptor("missing");
  missing.road_path = "/nonexistent/road.tsv";
  EXPECT_FALSE(catalog.Register(missing, &error).has_value());
  EXPECT_NE(error.find("dataset 'missing'"), std::string::npos) << error;
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  // Malformed network file: the io layer's line diagnostic passes through.
  const std::string bad_road = TempPath("catalog_bad_road.tsv");
  {
    std::ofstream out(bad_road);
    out << "V\t0\t0.0\t0.0\n" << "E\t0\t0\t0\toops\t1\n";
  }
  DatasetDescriptor malformed = GridDescriptor("malformed");
  malformed.road_path = bad_road;
  EXPECT_FALSE(catalog.Register(malformed, &error).has_value());
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  std::remove(bad_road.c_str());

  // Cross-reference validation: a stop affiliated with a road vertex
  // that does not exist.
  const std::string bad_transit = TempPath("catalog_bad_transit.tsv");
  {
    std::ofstream out(bad_transit);
    out << "S\t0\t99\t0.0\t0.0\n";
  }
  DatasetDescriptor dangling = GridDescriptor("dangling");
  dangling.transit_path = bad_transit;
  dangling.trips_path.clear();
  EXPECT_FALSE(catalog.Register(dangling, &error).has_value());
  EXPECT_NE(error.find("road vertex 99"), std::string::npos) << error;
  std::remove(bad_transit.c_str());

  // Trip rows must be road-adjacent vertex paths; errors carry the line.
  const std::string bad_trips = TempPath("catalog_bad_trips.csv");
  {
    std::ofstream out(bad_trips);
    out << "0,1\n" << "0,24\n";  // 0 and 24 are opposite grid corners
  }
  DatasetDescriptor teleporting = GridDescriptor("teleporting");
  teleporting.trips_path = bad_trips;
  EXPECT_FALSE(catalog.Register(teleporting, &error).has_value());
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  EXPECT_NE(error.find("not adjacent"), std::string::npos) << error;
  std::remove(bad_trips.c_str());

  // Source validation and duplicates.
  DatasetDescriptor both = GridDescriptor("both");
  both.preset = "midtown";
  EXPECT_FALSE(catalog.Register(both, &error).has_value());
  EXPECT_NE(error.find("exactly one source"), std::string::npos) << error;

  DatasetDescriptor unknown;
  unknown.name = "unknown";
  unknown.preset = "atlantis";
  EXPECT_FALSE(catalog.Register(unknown, &error).has_value());
  EXPECT_NE(error.find("unknown preset"), std::string::npos) << error;

  DatasetDescriptor nan_scale;
  nan_scale.name = "nan_scale";
  nan_scale.preset = "chicago";
  nan_scale.preset_scale = std::nan("");
  EXPECT_FALSE(catalog.Register(nan_scale, &error).has_value());
  EXPECT_NE(error.find("preset scale nan"), std::string::npos) << error;

  ASSERT_TRUE(catalog.Register(GridDescriptor(), &error).has_value())
      << error;
  EXPECT_FALSE(catalog.Register(GridDescriptor(), &error).has_value());
  EXPECT_NE(error.find("already registered"), std::string::npos) << error;

  // Failed registrations left no dataset behind.
  EXPECT_FALSE(service.HasDataset("missing"));
  EXPECT_FALSE(service.HasDataset("malformed"));
  EXPECT_FALSE(service.HasDataset("teleporting"));
  EXPECT_FALSE(service.HasDataset("nan_scale"));
}

TEST(DatasetCatalogTest, RetentionProtectsWarmStartDonorsAcrossCommits) {
  // keep_latest = 1 is as tight as a policy gets, yet every warm start
  // must keep working: cache-resident donor versions (and their lineage)
  // are protected, so only versions nothing references get pruned.
  ServiceOptions service_options;
  service_options.cache_capacity = 2;
  PlanningService service(service_options);
  DatasetCatalog catalog(&service);
  DatasetDescriptor descriptor = GridDescriptor();
  descriptor.retention.keep_latest = 1;
  std::string error;
  ASSERT_TRUE(catalog.Register(descriptor, &error).has_value()) << error;

  std::vector<ServiceResult> results;
  for (int round = 0; round < 3; ++round) {
    ServiceResult result = service.Plan(GridRequest());
    ASSERT_TRUE(result.plan.found);
    EXPECT_EQ(result.stats.snapshot_version,
              static_cast<std::uint64_t>(round + 1));
    if (round > 0) {
      // The previous version's precompute is cache-resident, therefore
      // protected from retention: the derive must succeed every round.
      EXPECT_TRUE(result.stats.precompute_derived);
    }
    service.Commit(result);
    results.push_back(std::move(result));
  }
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.precomputes_from_scratch, 1u);
  EXPECT_EQ(stats.precomputes_derived, 2u);
  // By the third commit, version 1's entry has been evicted from the
  // 2-entry cache, unprotecting it: retention prunes it.
  EXPECT_GE(stats.snapshots_pruned, 1u);
  const auto memory = service.dataset_memory_stats("grid");
  EXPECT_GE(memory.snapshots_pruned, 1u);
  EXPECT_LT(memory.resident_versions, 4u);
  EXPECT_GT(memory.snapshot_bytes, 0u);
}

TEST(DatasetCatalogTest, TightBudgetsNeverChangePlanningResults) {
  // The acceptance criterion: a roomy service and a tightly budgeted one
  // (cache byte budget ~1 entry, keep-latest-1 retention) must produce
  // bit-identical plans for the same request sequence — only stats (cache
  // hits, evictions, prunes, derived vs scratch) may differ. A derived
  // precompute equals a scratch one bit for bit (docs/PRECOMPUTE.md), so
  // the roomy run's warm starts must not move a result either.
  const auto run = [](std::size_t cache_max_bytes,
                      std::size_t keep_latest) {
    ServiceOptions service_options;
    service_options.cache_capacity = 8;
    service_options.cache_max_bytes = cache_max_bytes;
    service_options.retention.keep_latest = keep_latest;
    PlanningService service(service_options);
    DatasetCatalog catalog(&service);
    std::string error;
    EXPECT_TRUE(catalog.Register(GridDescriptor(), &error).has_value())
        << error;
    std::vector<ServiceResult> results;
    for (int round = 0; round < 3; ++round) {
      ServiceResult result = service.Plan(GridRequest());
      EXPECT_TRUE(result.plan.found);
      service.Commit(result);
      results.push_back(std::move(result));
    }
    return results;
  };

  const auto roomy = run(/*cache_max_bytes=*/0, /*keep_latest=*/0);
  const auto tight = run(/*cache_max_bytes=*/1, /*keep_latest=*/1);
  ASSERT_EQ(roomy.size(), tight.size());
  EXPECT_TRUE(roomy.back().stats.precompute_derived);
  for (std::size_t i = 0; i < roomy.size(); ++i) {
    EXPECT_EQ(roomy[i].plan.objective, tight[i].plan.objective) << i;
    EXPECT_EQ(roomy[i].plan.demand, tight[i].plan.demand) << i;
    EXPECT_EQ(roomy[i].plan.connectivity_increment,
              tight[i].plan.connectivity_increment)
        << i;
    EXPECT_EQ(roomy[i].plan.path.edges(), tight[i].plan.path.edges()) << i;
    EXPECT_EQ(roomy[i].plan.path.stops(), tight[i].plan.path.stops()) << i;
  }
}

}  // namespace
}  // namespace ctbus::service
