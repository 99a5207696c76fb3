// PrecomputeCache disk spill + service restart persistence: an evicted
// (or destructor-flushed) precompute round-trips through its spill file
// bit-identically, a recreated cache/service over the same spill
// directory answers its first query from disk — zero Dijkstra or Lanczos
// calls, identical ResponseChecksum — and anything stale, corrupt,
// foreign-keyed, or fingerprint-incompatible on disk is a plain miss,
// never an error.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
#include "io/network_io.h"
#include "io/snapshot.h"
#include "net/frame.h"
#include "service/dataset_catalog.h"
#include "service/planning_service.h"
#include "service/precompute_cache.h"

#ifndef CTBUS_TEST_DATA_DIR
#define CTBUS_TEST_DATA_DIR "tests/data"
#endif

namespace ctbus::service {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(CTBUS_TEST_DATA_DIR) + "/" + name;
}

/// A fresh spill directory per test: spill files are keyed by content,
/// so sharing one directory across tests would let them see each other's
/// entries.
std::string FreshSpillDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
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

/// The grid fixture's networks (with trip demand from the CSV ingested
/// by the catalog at service level; cache-level tests skip trips — the
/// cache never looks inside a Precompute).
struct GridNetworks {
  graph::RoadNetwork road;
  graph::TransitNetwork transit;
};

GridNetworks LoadGrid() {
  auto road = io::LoadRoadNetwork(DataPath("grid_road.tsv"));
  auto transit = io::LoadTransitNetwork(DataPath("grid_transit.tsv"));
  EXPECT_TRUE(road.has_value());
  EXPECT_TRUE(transit.has_value());
  return {std::move(*road), std::move(*transit)};
}

PrecomputeCache::ComputeFn ComputeFor(const GridNetworks& networks,
                                      const core::CtBusOptions& options,
                                      int* calls = nullptr) {
  return [&networks, options, calls] {
    if (calls != nullptr) ++*calls;
    return core::PlanningContext::RunPrecompute(networks.road,
                                                networks.transit, options);
  };
}

/// A compute function that must never run — the disk-hit assertion.
PrecomputeCache::ComputeFn MustNotCompute() {
  return []() -> core::Precompute {
    ADD_FAILURE() << "compute ran: the spill file was not used";
    return core::Precompute{};
  };
}

std::vector<std::uint8_t> PrecomputeBytes(const core::Precompute& p) {
  std::vector<std::uint8_t> bytes;
  io::EncodePrecompute(p, &bytes);
  return bytes;
}

TEST(PrecomputeCacheSpillTest, EvictionSpillsAndARecreatedCacheDiskHits) {
  const std::string dir = FreshSpillDir("spill_evict");
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key_a = MakePrecomputeKey("grid", 1, options);
  core::CtBusOptions other = options;
  other.tau = 1200.0;
  const PrecomputeKey key_b = MakePrecomputeKey("grid", 1, other);

  std::vector<std::uint8_t> original_bytes;
  std::string spill_path;
  {
    PrecomputeCache cache(/*capacity=*/1, /*max_bytes=*/0, dir);
    const auto value = cache.GetOrCompute(key_a, ComputeFor(networks, options));
    original_bytes = PrecomputeBytes(*value);
    spill_path = cache.SpillPath(key_a);
    // Inserting key B evicts key A (capacity 1) and spills it.
    cache.GetOrCompute(key_b, ComputeFor(networks, other));
    EXPECT_FALSE(cache.Contains(key_a));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_GE(cache.stats().spill_saves, 1u);
    EXPECT_TRUE(std::filesystem::exists(spill_path));
  }

  // The spill file is a well-formed CTBS record carrying the exact key.
  std::string error;
  const auto entry = io::LoadPrecomputeCacheEntry(spill_path, &error);
  ASSERT_TRUE(entry.has_value()) << error;
  EXPECT_EQ(entry->dataset, "grid");
  EXPECT_EQ(entry->snapshot_version, 1u);
  EXPECT_EQ(PrecomputeBytes(entry->precompute), original_bytes);

  // A brand-new cache over the same directory: first request for key A is
  // a disk hit — bit-identical bytes, compute never runs.
  PrecomputeCache restarted(/*capacity=*/4, /*max_bytes=*/0, dir);
  bool was_hit = false;
  const auto loaded = restarted.GetOrCompute(key_a, MustNotCompute(), &was_hit);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(was_hit) << "a spill load counts as a hit";
  EXPECT_EQ(restarted.stats().spill_loads, 1u);
  EXPECT_EQ(PrecomputeBytes(*loaded), original_bytes);
  // Now resident: the second request is an ordinary memory hit.
  was_hit = false;
  restarted.GetOrCompute(key_a, MustNotCompute(), &was_hit);
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(restarted.stats().spill_loads, 1u);
}

TEST(PrecomputeCacheSpillTest, DestructorFlushesReadyEntries) {
  const std::string dir = FreshSpillDir("spill_dtor");
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key = MakePrecomputeKey("grid", 1, options);
  std::string spill_path;
  {
    PrecomputeCache cache(/*capacity=*/4, /*max_bytes=*/0, dir);
    cache.GetOrCompute(key, ComputeFor(networks, options));
    spill_path = cache.SpillPath(key);
    // No eviction happened; the destructor must flush the entry.
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
  EXPECT_TRUE(std::filesystem::exists(spill_path));
  PrecomputeCache restarted(/*capacity=*/4, /*max_bytes=*/0, dir);
  bool was_hit = false;
  ASSERT_NE(restarted.GetOrCompute(key, MustNotCompute(), &was_hit), nullptr);
  EXPECT_TRUE(was_hit);
}

TEST(PrecomputeCacheSpillTest, CorruptOrStaleFilesAreMissesNotErrors) {
  const std::string dir = FreshSpillDir("spill_corrupt");
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key = MakePrecomputeKey("grid", 1, options);
  PrecomputeCache cache(/*capacity=*/4, /*max_bytes=*/0, dir);

  // Garbage bytes at exactly the path the cache would read.
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(cache.SpillPath(key), std::ios::binary);
    out << "not a CTBS snapshot";
  }
  int calls = 0;
  bool was_hit = true;
  ASSERT_NE(cache.GetOrCompute(key, ComputeFor(networks, options, &calls),
                               &was_hit),
            nullptr);
  EXPECT_EQ(calls, 1) << "corrupt spill file must fall through to compute";
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(cache.stats().spill_loads, 0u);

  // A record that is valid in every byte except its header's format
  // version, patched back to 1 (a spill file left by an older build).
  io::PrecomputeCacheEntry entry;
  entry.dataset = "grid";
  entry.snapshot_version = 1;
  entry.provenance = io::MakeProvenance(options);
  entry.precompute = core::PlanningContext::RunPrecompute(
      networks.road, networks.transit, options);
  std::vector<std::uint8_t> bytes = io::EncodePrecomputeCacheEntry(entry);
  io::PrecomputeCacheEntry decoded;
  std::string error;
  ASSERT_TRUE(io::DecodePrecomputeCacheEntry(bytes.data(), bytes.size(),
                                             &decoded, &error))
      << error;
  bytes[4] = 1;
  bytes[5] = 0;
  bytes[6] = 0;
  bytes[7] = 0;
  const std::string stale_dir = FreshSpillDir("spill_stale_version");
  PrecomputeCache stale(/*capacity=*/4, /*max_bytes=*/0, stale_dir);
  ASSERT_TRUE(io::WriteFileBytes(stale.SpillPath(key), bytes, &error))
      << error;
  calls = 0;
  was_hit = true;
  ASSERT_NE(stale.GetOrCompute(key, ComputeFor(networks, options, &calls),
                               &was_hit),
            nullptr);
  EXPECT_EQ(calls, 1) << "a stale format version must fall through to compute";
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(stale.stats().spill_loads, 0u);
}

// A spill written by a format-4 binary holds trace increments from another
// eigenvalue kernel. Planning reads a path's first trace term straight
// from that table, so serving it would make a one-edge path's increment
// differ from the solve this binary runs. It must be a plain miss that is
// recomputed, even though every other byte of the record is valid.
TEST(PrecomputeCacheSpillTest, FormatFourSpillIsRecomputed) {
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key = MakePrecomputeKey("grid", 1, options);
  const core::Precompute fresh = core::PlanningContext::RunPrecompute(
      networks.road, networks.transit, options);
  // Stand-in for the other kernel's bits: a table this binary never
  // computes.
  io::PrecomputeCacheEntry entry;
  entry.dataset = "grid";
  entry.snapshot_version = 1;
  entry.provenance = io::MakeProvenance(options);
  entry.precompute = fresh;
  for (double& trace : entry.precompute.trace_increments) trace *= 2.0;
  entry.precompute.FillIncrements();
  std::vector<std::uint8_t> bytes = io::EncodePrecomputeCacheEntry(entry);
  ASSERT_EQ(bytes[4], io::kSnapshotFormatVersion);

  const auto current = static_cast<std::uint8_t>(io::kSnapshotFormatVersion);
  ASSERT_GT(current, 4) << "format 4 must stay a previous format";
  for (const std::uint8_t version : {current, std::uint8_t{4}}) {
    SCOPED_TRACE("format version " + std::to_string(version));
    bytes[4] = version;
    const std::string dir =
        FreshSpillDir("spill_format_" + std::to_string(version));
    PrecomputeCache cache(/*capacity=*/4, /*max_bytes=*/0, dir);
    std::string error;
    ASSERT_TRUE(io::WriteFileBytes(cache.SpillPath(key), bytes, &error))
        << error;
    int calls = 0;
    bool was_hit = false;
    const PrecomputeCache::PrecomputePtr served = cache.GetOrCompute(
        key, ComputeFor(networks, options, &calls), &was_hit);
    ASSERT_NE(served, nullptr);
    if (version == current) {
      // Control: the same record at this format is served from disk.
      EXPECT_EQ(calls, 0);
      EXPECT_TRUE(was_hit);
      EXPECT_EQ(cache.stats().spill_loads, 1u);
      EXPECT_EQ(served->trace_increments,
                entry.precompute.trace_increments);
    } else {
      EXPECT_EQ(calls, 1) << "a format-4 spill must fall through to compute";
      EXPECT_FALSE(was_hit);
      EXPECT_EQ(cache.stats().spill_loads, 0u);
      EXPECT_EQ(served->trace_increments, fresh.trace_increments);
    }
  }
}

TEST(PrecomputeCacheSpillTest, WrongKeyOnDiskIsAMiss) {
  const std::string dir = FreshSpillDir("spill_wrong_key");
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key = MakePrecomputeKey("grid", 1, options);
  PrecomputeCache cache(/*capacity=*/4, /*max_bytes=*/0, dir);

  // A well-formed record for a *different* key, planted at key's path
  // (as if the stable hash ever collided across datasets).
  core::CtBusOptions other = options;
  other.tau = 1200.0;
  io::PrecomputeCacheEntry foreign;
  foreign.dataset = "grid";
  foreign.snapshot_version = 1;
  foreign.provenance = io::MakeProvenance(other);
  foreign.precompute = core::PlanningContext::RunPrecompute(
      networks.road, networks.transit, other);
  std::filesystem::create_directories(dir);
  std::string error;
  ASSERT_TRUE(
      io::SavePrecomputeCacheEntry(foreign, cache.SpillPath(key), &error))
      << error;

  int calls = 0;
  ASSERT_NE(cache.GetOrCompute(key, ComputeFor(networks, options, &calls)),
            nullptr);
  EXPECT_EQ(calls, 1) << "a recorded key mismatch must be a plain miss";
  EXPECT_EQ(cache.stats().spill_loads, 0u);
}

TEST(PrecomputeCacheSpillTest, FingerprintMismatchIsAMiss) {
  const std::string dir = FreshSpillDir("spill_fingerprint");
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key = MakePrecomputeKey("grid", 1, options);
  const std::uint64_t real_fingerprint =
      io::NetworkFingerprint(networks.road, networks.transit);
  {
    PrecomputeCache cache(/*capacity=*/4, /*max_bytes=*/0, dir);
    cache.GetOrCompute(key, ComputeFor(networks, options), nullptr,
                       [&] { return real_fingerprint; });
  }
  // Same key, same file — but the caller's networks hash differently
  // (snapshot version numbers restart at 1; content does not lie).
  PrecomputeCache restarted(/*capacity=*/4, /*max_bytes=*/0, dir);
  int calls = 0;
  ASSERT_NE(restarted.GetOrCompute(key, ComputeFor(networks, options, &calls),
                                   nullptr,
                                   [&] { return real_fingerprint ^ 1; }),
            nullptr);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(restarted.stats().spill_loads, 0u);

  // A matching fingerprint loads fine on the next fresh cache.
  PrecomputeCache matching(/*capacity=*/4, /*max_bytes=*/0, dir);
  bool was_hit = false;
  ASSERT_NE(matching.GetOrCompute(key, MustNotCompute(), &was_hit,
                                  [&] { return real_fingerprint; }),
            nullptr);
  EXPECT_TRUE(was_hit);

  // A well-formed entry under the right key that recorded no fingerprint
  // (0) proves nothing about the networks: a caller with a fingerprint
  // must compute rather than serve it.
  const std::string unrecorded_dir = FreshSpillDir("spill_fingerprint_zero");
  PrecomputeCache unrecorded(/*capacity=*/4, /*max_bytes=*/0, unrecorded_dir);
  io::PrecomputeCacheEntry entry;
  entry.dataset = key.dataset;
  entry.snapshot_version = key.snapshot_version;
  entry.network_fingerprint = 0;
  entry.provenance = key.provenance;
  entry.precompute = core::PlanningContext::RunPrecompute(
      networks.road, networks.transit, options);
  std::string error;
  ASSERT_TRUE(io::SavePrecomputeCacheEntry(entry, unrecorded.SpillPath(key),
                                           &error))
      << error;
  calls = 0;
  was_hit = true;
  ASSERT_NE(unrecorded.GetOrCompute(key, ComputeFor(networks, options, &calls),
                                    &was_hit,
                                    [&] { return real_fingerprint; }),
            nullptr);
  EXPECT_EQ(calls, 1) << "an unrecorded fingerprint must be a plain miss";
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(unrecorded.stats().spill_loads, 0u);
}

TEST(PrecomputeCacheSpillTest, CapacityZeroDisablesSpillEntirely) {
  const std::string dir = FreshSpillDir("spill_cap0");
  const GridNetworks networks = LoadGrid();
  const core::CtBusOptions options = GridOptions();
  const PrecomputeKey key = MakePrecomputeKey("grid", 1, options);
  {
    PrecomputeCache cache(/*capacity=*/0, /*max_bytes=*/0, dir);
    cache.GetOrCompute(key, ComputeFor(networks, options));
  }
  // Nothing was stored, so nothing was spilled.
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
}

// ------------------------------------------------ service restart ----

DatasetDescriptor GridDescriptor() {
  DatasetDescriptor descriptor;
  descriptor.name = "grid";
  descriptor.road_path = DataPath("grid_road.tsv");
  descriptor.transit_path = DataPath("grid_transit.tsv");
  descriptor.trips_path = DataPath("grid_trips.csv");
  return descriptor;
}

PlanRequest GridRequest() {
  PlanRequest request;
  request.dataset = "grid";
  request.options = GridOptions();
  request.planner = core::Planner::kEtaPre;
  return request;
}

TEST(ServiceRestartTest, FirstQueryAfterRestartIsADiskHitBitIdentically) {
  const std::string dir = FreshSpillDir("service_restart");
  ServiceOptions service_options;
  service_options.cache_capacity = 8;
  service_options.cache_spill_dir = dir;

  std::uint64_t cold_checksum = 0;
  {
    PlanningService service(service_options);
    DatasetCatalog catalog(&service);
    std::string error;
    ASSERT_TRUE(catalog.Register(GridDescriptor(), &error).has_value())
        << error;
    const ServiceResult cold = service.Plan(GridRequest());
    ASSERT_TRUE(cold.plan.found);
    EXPECT_FALSE(cold.stats.precompute_cache_hit);
    cold_checksum = net::ResponseChecksum(net::MakeOkResponse(1, cold));
    // Service teardown flushes the cache to the spill directory.
  }
  ASSERT_TRUE(std::filesystem::exists(dir));
  ASSERT_FALSE(std::filesystem::is_empty(dir));

  // "Restarted process": a brand-new service over the same directory.
  PlanningService service(service_options);
  DatasetCatalog catalog(&service);
  std::string error;
  ASSERT_TRUE(catalog.Register(GridDescriptor(), &error).has_value())
      << error;
  const ServiceResult warm = service.Plan(GridRequest());
  ASSERT_TRUE(warm.plan.found);
  // The first query never ran a Dijkstra or Lanczos call: the precompute
  // came off disk and counts as a cache hit.
  EXPECT_TRUE(warm.stats.precompute_cache_hit);
  EXPECT_EQ(service.cache_stats().spill_loads, 1u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  // Bit-identical serving: the full deterministic response (route edges,
  // stops, objective, connectivity increment, iterations) checksums
  // equal against the cold-start run.
  EXPECT_EQ(net::ResponseChecksum(net::MakeOkResponse(1, warm)),
            cold_checksum);
}

TEST(ServiceRestartTest, SnapshotPathAcceleratesRegistration) {
  const std::string snapshot_path =
      ::testing::TempDir() + "/grid_dataset.ctbs";
  std::filesystem::remove(snapshot_path);

  DatasetDescriptor descriptor = GridDescriptor();
  descriptor.snapshot_path = snapshot_path;

  std::uint64_t cold_checksum = 0;
  {
    PlanningService service(ServiceOptions{});
    DatasetCatalog catalog(&service);
    std::string error;
    const auto manifest = catalog.Register(descriptor, &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    EXPECT_FALSE(manifest->loaded_from_snapshot);
    EXPECT_TRUE(manifest->snapshot_saved);
    EXPECT_EQ(manifest->trips_ingested, 12);
    ASSERT_TRUE(std::filesystem::exists(snapshot_path));
    const ServiceResult cold = service.Plan(GridRequest());
    ASSERT_TRUE(cold.plan.found);
    cold_checksum = net::ResponseChecksum(net::MakeOkResponse(1, cold));
  }

  // Second start: the snapshot short-circuits text parsing and trip
  // ingestion, and the served plan is bit-identical.
  PlanningService service(ServiceOptions{});
  DatasetCatalog catalog(&service);
  std::string error;
  const auto manifest = catalog.Register(descriptor, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_TRUE(manifest->loaded_from_snapshot);
  EXPECT_FALSE(manifest->snapshot_saved);
  EXPECT_EQ(manifest->trips_ingested, 0)
      << "snapshot loads skip the CSV — its counts are already baked in";
  EXPECT_EQ(manifest->road_vertices, 25);
  EXPECT_EQ(manifest->stops, 9);
  const ServiceResult warm = service.Plan(GridRequest());
  ASSERT_TRUE(warm.plan.found);
  EXPECT_EQ(net::ResponseChecksum(net::MakeOkResponse(1, warm)),
            cold_checksum);

  // A corrupt snapshot is rebuilt from source, not an error.
  {
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  PlanningService rebuilt_service(ServiceOptions{});
  DatasetCatalog rebuilt_catalog(&rebuilt_service);
  const auto rebuilt = rebuilt_catalog.Register(descriptor, &error);
  ASSERT_TRUE(rebuilt.has_value()) << error;
  EXPECT_FALSE(rebuilt->loaded_from_snapshot);
  EXPECT_TRUE(rebuilt->snapshot_saved);
  EXPECT_EQ(rebuilt->trips_ingested, 12);
}

}  // namespace
}  // namespace ctbus::service
