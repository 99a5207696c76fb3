// Binary snapshot tests (src/io/snapshot.h): bit-identical round trips
// against text-loaded originals (networks, universe, a derived precompute
// with non-default stats, demand ranking, inactive routes), byte-stable
// re-encoding gated by a committed fixture (tests/data/grid.ctbs), the
// malformed-file corpus (truncation at every section boundary, bad magic/version, flipped
// checksum byte, oversized section length, trailing garbage — every
// failure names its section, Load never returns a partial object), and
// the PrecomputeCacheEntry spill-record container.
#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
#include "demand/ranked_list.h"
#include "io/bytes.h"
#include "io/network_io.h"

#ifndef CTBUS_TEST_DATA_DIR
#define CTBUS_TEST_DATA_DIR "tests/data"
#endif

namespace ctbus::io {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(CTBUS_TEST_DATA_DIR) + "/" + name;
}

/// The committed 5x5 grid fixture, text-loaded (stops 800 m apart, so
/// tau = 900 yields candidate edges between neighboring stops).
graph::RoadNetwork GridRoad() {
  auto road = LoadRoadNetwork(DataPath("grid_road.tsv"));
  EXPECT_TRUE(road.has_value());
  return std::move(*road);
}

graph::TransitNetwork GridTransit() {
  auto transit = LoadTransitNetwork(DataPath("grid_transit.tsv"));
  EXPECT_TRUE(transit.has_value());
  return std::move(*transit);
}

core::CtBusOptions GridOptions() {
  core::CtBusOptions options;
  options.tau = 900.0;
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

/// Bit-identity proxy: two objects whose canonical encodings are equal
/// byte for byte are bit-identical in every field the planner can see.
template <typename T, typename EncodeFn>
void ExpectSameBytes(const T& a, const T& b, const EncodeFn& encode) {
  std::vector<std::uint8_t> bytes_a;
  std::vector<std::uint8_t> bytes_b;
  encode(a, &bytes_a);
  encode(b, &bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(SnapshotObjectsTest, RoadNetworkRoundTripsBitIdentically) {
  const graph::RoadNetwork road = GridRoad();
  std::vector<std::uint8_t> bytes;
  EncodeRoadNetwork(road, &bytes);
  graph::RoadNetwork decoded;
  std::string error;
  ASSERT_TRUE(DecodeRoadNetwork(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.graph().num_vertices(), road.graph().num_vertices());
  ASSERT_EQ(decoded.graph().num_edges(), road.graph().num_edges());
  for (int v = 0; v < road.graph().num_vertices(); ++v) {
    EXPECT_EQ(decoded.graph().position(v).x, road.graph().position(v).x);
    EXPECT_EQ(decoded.graph().position(v).y, road.graph().position(v).y);
  }
  for (int e = 0; e < road.graph().num_edges(); ++e) {
    EXPECT_EQ(decoded.graph().edge(e).u, road.graph().edge(e).u);
    EXPECT_EQ(decoded.graph().edge(e).v, road.graph().edge(e).v);
    EXPECT_EQ(decoded.graph().edge(e).length, road.graph().edge(e).length);
    EXPECT_EQ(decoded.trip_count(e), road.trip_count(e));
  }
  ExpectSameBytes(road, decoded, EncodeRoadNetwork);
}

TEST(SnapshotObjectsTest, TransitNetworkRoundTripsInactiveRoutes) {
  graph::TransitNetwork transit = GridTransit();
  // An inactive route is real bookkeeping (CommitRoute + RemoveRoute
  // leave one behind); it must survive the round trip with its edges
  // still present and its active flag still false.
  const int removed =
      transit.AddRoute({0, 1, 2});  // stops 0-1-2 are a fixture row
  transit.RemoveRoute(removed);
  ASSERT_FALSE(transit.route(removed).active);

  std::vector<std::uint8_t> bytes;
  EncodeTransitNetwork(transit, &bytes);
  graph::TransitNetwork decoded;
  std::string error;
  ASSERT_TRUE(
      DecodeTransitNetwork(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.num_stops(), transit.num_stops());
  ASSERT_EQ(decoded.num_edges(), transit.num_edges());
  ASSERT_EQ(decoded.num_routes(), transit.num_routes());
  EXPECT_EQ(decoded.num_active_routes(), transit.num_active_routes());
  EXPECT_FALSE(decoded.route(removed).active);
  for (int e = 0; e < transit.num_edges(); ++e) {
    EXPECT_EQ(decoded.edge(e).routes, transit.edge(e).routes)
        << "edge " << e << " route list must be rebuilt bit-identically";
    EXPECT_EQ(decoded.EdgeActive(e), transit.EdgeActive(e));
  }
  ExpectSameBytes(transit, decoded, EncodeTransitNetwork);
}

TEST(SnapshotObjectsTest, PrecomputeRoundTripsBitIdentically) {
  const graph::RoadNetwork road = GridRoad();
  const graph::TransitNetwork transit = GridTransit();
  const core::CtBusOptions options = GridOptions();
  // A derived precompute exercises the non-default stats fields: stop 0
  // marked touched recomputes its candidates and carries the rest.
  const core::Precompute scratch =
      core::PlanningContext::RunPrecompute(road, transit, options);
  core::SnapshotDelta delta;
  delta.touched_stops = {0};
  const core::Precompute precompute = core::PlanningContext::DerivePrecompute(
      road, transit, options, scratch, delta);
  ASSERT_TRUE(precompute.stats.derived);
  ASSERT_GT(precompute.stats.num_increments_carried, 0);

  std::vector<std::uint8_t> bytes;
  EncodePrecompute(precompute, &bytes);
  core::Precompute decoded;
  std::string error;
  ASSERT_TRUE(DecodePrecompute(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.universe.num_edges(), precompute.universe.num_edges());
  EXPECT_EQ(decoded.universe.num_new_edges(),
            precompute.universe.num_new_edges());
  EXPECT_EQ(decoded.universe.num_stops(), precompute.universe.num_stops());
  EXPECT_EQ(decoded.trace_increments, precompute.trace_increments);
  EXPECT_EQ(decoded.base_trace, precompute.base_trace);
  EXPECT_EQ(decoded.increments, precompute.increments);
  EXPECT_TRUE(decoded.stats.derived);
  EXPECT_EQ(decoded.stats.num_increments_recomputed,
            precompute.stats.num_increments_recomputed);
  EXPECT_EQ(decoded.stats.num_increments_carried,
            precompute.stats.num_increments_carried);
  for (int s = 0; s < precompute.universe.num_stops(); ++s) {
    EXPECT_EQ(decoded.universe.IncidentEdges(s),
              precompute.universe.IncidentEdges(s));
  }
  ExpectSameBytes(precompute, decoded, EncodePrecompute);
}

TEST(SnapshotObjectsTest, PrecomputeAnchorMustBePositive) {
  // Delta(e) is rebuilt from the stored trace increments on decode, so a
  // hostile tr_0 must fail by name before it can reach a log1p.
  core::Precompute precompute = core::PlanningContext::RunPrecompute(
      GridRoad(), GridTransit(), GridOptions());
  for (double base_trace : {0.0, -1.0}) {
    precompute.base_trace = base_trace;
    std::vector<std::uint8_t> bytes;
    EncodePrecompute(precompute, &bytes);
    core::Precompute decoded;
    std::string error;
    EXPECT_FALSE(
        DecodePrecompute(bytes.data(), bytes.size(), &decoded, &error));
    EXPECT_NE(error.find("base_trace"), std::string::npos) << error;
  }
}

TEST(SnapshotObjectsTest, EdgeUniverseFromEdgesMatchesBuild) {
  const graph::RoadNetwork road = GridRoad();
  const graph::TransitNetwork transit = GridTransit();
  const core::EdgeUniverse built = core::EdgeUniverse::Build(
      road, transit, {/*tau=*/900.0, /*detour_factor=*/3.0});
  std::vector<core::PlannableEdge> edges;
  edges.reserve(built.num_edges());
  for (int e = 0; e < built.num_edges(); ++e) edges.push_back(built.edge(e));
  const core::EdgeUniverse rebuilt =
      core::EdgeUniverse::FromEdges(std::move(edges), built.num_stops());
  EXPECT_EQ(rebuilt.num_new_edges(), built.num_new_edges());
  ExpectSameBytes(built, rebuilt, EncodeEdgeUniverse);
}

TEST(SnapshotObjectsTest, RankedListRoundTripsScoresAndRanking) {
  const demand::RankedList list({3.0, 1.0, 4.0, 1.5, 9.0});
  std::vector<std::uint8_t> bytes;
  EncodeRankedList(list, &bytes);
  demand::RankedList decoded;
  std::string error;
  ASSERT_TRUE(DecodeRankedList(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.size(), list.size());
  for (int e = 0; e < list.size(); ++e) {
    EXPECT_EQ(decoded.ValueOf(e), list.ValueOf(e));
    EXPECT_EQ(decoded.RankOf(e), list.RankOf(e));
  }
}

/// A full four-section snapshot over the grid fixture.
Snapshot MakeFullSnapshot() {
  Snapshot snapshot;
  snapshot.road = GridRoad();
  snapshot.transit = GridTransit();
  const core::CtBusOptions options = GridOptions();
  snapshot.precompute = core::PlanningContext::RunPrecompute(
      snapshot.road, snapshot.transit, options);
  snapshot.provenance = MakeProvenance(options);
  snapshot.has_precompute = true;
  snapshot.demand =
      demand::RankedList(snapshot.precompute.universe.DemandScores());
  snapshot.has_demand = true;
  return snapshot;
}

TEST(SnapshotContainerTest, FullSnapshotRoundTripsByteStably) {
  const Snapshot snapshot = MakeFullSnapshot();
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(snapshot);
  Snapshot decoded;
  std::string error;
  ASSERT_TRUE(DecodeSnapshot(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  EXPECT_TRUE(decoded.has_precompute);
  EXPECT_TRUE(decoded.has_demand);
  EXPECT_TRUE(decoded.provenance == snapshot.provenance);
  // Byte stability: re-encoding the decoded snapshot reproduces the
  // input byte for byte — the load-save loop is the identity.
  EXPECT_EQ(EncodeSnapshot(decoded), bytes);
}

TEST(SnapshotContainerTest, SaveLoadThroughAFile) {
  const Snapshot snapshot = MakeFullSnapshot();
  const std::string path = ::testing::TempDir() + "/grid_roundtrip.ctbs";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(snapshot, path, &error)) << error;
  const auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(EncodeSnapshot(*loaded), EncodeSnapshot(snapshot));
}

TEST(SnapshotContainerTest, CommittedFixtureBytesAreStable) {
  // The committed binary fixture gates the format itself: if encoding
  // drifts (field order, widths, checksum constants) without a format
  // version bump, this test fails before any restart-compat bug ships.
  // Regen recipe: tests/data/README.md.
  Snapshot snapshot;
  snapshot.road = GridRoad();
  snapshot.transit = GridTransit();
  std::vector<std::uint8_t> committed;
  std::string error;
  ASSERT_TRUE(ReadFileBytes(DataPath("grid.ctbs"), &committed, &error))
      << error;
  EXPECT_EQ(EncodeSnapshot(snapshot), committed);
  Snapshot decoded;
  ASSERT_TRUE(
      DecodeSnapshot(committed.data(), committed.size(), &decoded, &error))
      << error;
  EXPECT_FALSE(decoded.has_precompute);
}

// ------------------------------------------------- malformed corpus ----

/// Asserts decode fails, the diagnostic contains `needle`, and the
/// output object is untouched (never partial).
void ExpectRejected(std::vector<std::uint8_t> bytes,
                    const std::string& needle) {
  Snapshot out;
  out.has_precompute = true;  // sentinel: decode must not clear it
  std::string error;
  EXPECT_FALSE(DecodeSnapshot(bytes.data(), bytes.size(), &out, &error));
  EXPECT_NE(error.find(needle), std::string::npos)
      << "diagnostic \"" << error << "\" should mention \"" << needle
      << "\"";
  EXPECT_TRUE(out.has_precompute) << "failed decode must not touch *out";
}

TEST(SnapshotCorruptionTest, TruncationAtEverySectionBoundary) {
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  const auto sections = InspectSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(sections.has_value());
  ASSERT_EQ(sections->size(), 4u);
  // Boundaries: end of header, end of section table, end of each payload.
  std::vector<std::size_t> boundaries = {0, 4, 8, 12,
                                         12 + sections->size() * 20};
  std::size_t offset = boundaries.back();
  for (const auto& section : *sections) {
    offset += section.payload_bytes;
    boundaries.push_back(offset);
  }
  ASSERT_EQ(boundaries.back(), bytes.size());
  for (std::size_t boundary : boundaries) {
    if (boundary == bytes.size()) continue;  // full file decodes fine
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + boundary);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        DecodeSnapshot(truncated.data(), truncated.size(), &out, &error))
        << "truncation at byte " << boundary << " must fail";
    EXPECT_FALSE(error.empty());
  }
  // One byte short of each boundary too — mid-section truncation.
  for (std::size_t boundary : boundaries) {
    if (boundary == 0) continue;
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + boundary - 1);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        DecodeSnapshot(truncated.data(), truncated.size(), &out, &error));
  }
}

TEST(SnapshotCorruptionTest, BadMagicAndVersion) {
  std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  ExpectRejected(std::move(bad_magic), "bad magic");
  auto bad_version = bytes;
  bad_version[4] = 0xfe;
  ExpectRejected(std::move(bad_version), "unsupported format version");
  auto stale_version = bytes;
  stale_version[4] = 3;  // PREC stored Delta(e) itself before version 4
  ExpectRejected(std::move(stale_version), "unsupported format version 3");
}

TEST(SnapshotCorruptionTest, FlippedPayloadByteNamesItsSection) {
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  const auto sections = InspectSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(sections.has_value());
  std::size_t offset = 12 + sections->size() * 20;
  for (const auto& section : *sections) {
    auto corrupt = bytes;
    corrupt[offset] ^= 0x01;  // first payload byte of this section
    ExpectRejected(std::move(corrupt),
                   "section " + section.tag + ": checksum mismatch");
    offset += section.payload_bytes;
  }
}

TEST(SnapshotCorruptionTest, FlippedChecksumByteNamesItsSection) {
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  // Section table rows start at 12; checksum is bytes 12..19 of each row.
  auto corrupt = bytes;
  corrupt[12 + 12] ^= 0x01;  // first row's stored checksum
  ExpectRejected(std::move(corrupt), "section ROAD: checksum mismatch");
}

TEST(SnapshotCorruptionTest, OversizedSectionLengthNeverReadsPastFile) {
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  // Bump the first section's declared payload length (bytes 4..11 of its
  // table row) far beyond the file: the table walk must reject it before
  // any payload pointer is formed or allocation sized from it.
  auto corrupt = bytes;
  corrupt[12 + 4 + 3] = 0x7f;  // declared ROAD length += 0x7f000000
  ExpectRejected(std::move(corrupt), "declared length overruns file");
}

TEST(SnapshotCorruptionTest, ShrunkSectionLengthIsTrailingBytes) {
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  auto corrupt = bytes;
  ASSERT_GT(corrupt[12 + 4], 0);  // ROAD payload length low byte
  corrupt[12 + 4] -= 1;  // one byte now unclaimed by any section
  ExpectRejected(std::move(corrupt), "");
}

TEST(SnapshotCorruptionTest, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = EncodeSnapshot(MakeFullSnapshot());
  bytes.push_back(0x00);
  ExpectRejected(std::move(bytes), "trailing bytes after last section");
}

TEST(SnapshotCorruptionTest, OversizedListCountInsideSectionIsBounded) {
  // Hand-build a ROAD+TRNS container whose ROAD payload declares 2^31
  // vertices with no bytes behind them, with a *valid* checksum — the
  // bounded reader must reject the count against the real payload size
  // instead of allocating.
  std::vector<std::uint8_t> road_payload = {0xff, 0xff, 0xff, 0x7f};
  graph::TransitNetwork transit;
  std::vector<std::uint8_t> transit_payload;
  EncodeTransitNetwork(transit, &transit_payload);
  std::vector<std::uint8_t> file;
  AppendU32(&file, kSnapshotMagic);
  AppendU32(&file, kSnapshotFormatVersion);
  AppendU32(&file, 2);
  AppendU32(&file, 0x44414F52u);  // "ROAD"
  AppendU64(&file, road_payload.size());
  AppendU64(&file, Fnv1a64(road_payload.data(), road_payload.size()));
  AppendU32(&file, 0x534E5254u);  // "TRNS"
  AppendU64(&file, transit_payload.size());
  AppendU64(&file, Fnv1a64(transit_payload.data(), transit_payload.size()));
  file.insert(file.end(), road_payload.begin(), road_payload.end());
  file.insert(file.end(), transit_payload.begin(), transit_payload.end());
  ExpectRejected(std::move(file), "section ROAD");
}

TEST(SnapshotCorruptionTest, MissingFileIsADiagnosedLoadFailure) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot("/nonexistent/no.ctbs", &error).has_value());
  EXPECT_NE(error.find("no.ctbs"), std::string::npos);
}

// ------------------------------------------- cache spill container ----

TEST(PrecomputeCacheEntryTest, RoundTripsBitIdentically) {
  PrecomputeCacheEntry entry;
  entry.dataset = "grid";
  entry.snapshot_version = 7;
  const graph::RoadNetwork road = GridRoad();
  const graph::TransitNetwork transit = GridTransit();
  entry.network_fingerprint = NetworkFingerprint(road, transit);
  const core::CtBusOptions options = GridOptions();
  entry.provenance = MakeProvenance(options);
  entry.precompute =
      core::PlanningContext::RunPrecompute(road, transit, options);

  const std::vector<std::uint8_t> bytes = EncodePrecomputeCacheEntry(entry);
  PrecomputeCacheEntry decoded;
  std::string error;
  ASSERT_TRUE(DecodePrecomputeCacheEntry(bytes.data(), bytes.size(),
                                         &decoded, &error))
      << error;
  EXPECT_EQ(decoded.dataset, entry.dataset);
  EXPECT_EQ(decoded.snapshot_version, entry.snapshot_version);
  EXPECT_EQ(decoded.network_fingerprint, entry.network_fingerprint);
  EXPECT_TRUE(decoded.provenance == entry.provenance);
  ExpectSameBytes(decoded.precompute, entry.precompute, EncodePrecompute);
  // The whole record is byte-stable too.
  EXPECT_EQ(EncodePrecomputeCacheEntry(decoded), bytes);
}

TEST(PrecomputeCacheEntryTest, SnapshotContainerIsNotACacheEntry) {
  // A dataset snapshot and a spill record share the format but not the
  // section schema; feeding one to the other's decoder is a named error,
  // not a partial object.
  Snapshot snapshot;
  snapshot.road = GridRoad();
  snapshot.transit = GridTransit();
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(snapshot);
  PrecomputeCacheEntry out;
  std::string error;
  EXPECT_FALSE(
      DecodePrecomputeCacheEntry(bytes.data(), bytes.size(), &out, &error));
  EXPECT_NE(error.find("SKEY"), std::string::npos);
}

TEST(SpillHashTest, StableHashSeparatesKeysAndIgnoresNothing) {
  const core::CtBusOptions options = GridOptions();
  const PrecomputeProvenance provenance = MakeProvenance(options);
  const std::uint64_t base = StableSpillHash("grid", 1, provenance);
  EXPECT_EQ(StableSpillHash("grid", 1, provenance), base);
  EXPECT_NE(StableSpillHash("grid", 2, provenance), base);
  EXPECT_NE(StableSpillHash("grid2", 1, provenance), base);
  PrecomputeProvenance other = provenance;
  other.seed ^= 1;
  EXPECT_NE(StableSpillHash("grid", 1, other), base);
}

}  // namespace
}  // namespace ctbus::io
