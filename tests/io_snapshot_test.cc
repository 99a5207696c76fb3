// Binary container tests (src/io/snapshot.h): bit-identical round trips
// against text-loaded originals (networks, universe, a derived precompute
// with non-default stats, inactive routes), byte-stable re-encoding gated
// by a committed fixture (tests/data/grid.ctbs), the refusal of
// precompute/demand sections in a city snapshot, the malformed-file
// corpus over both containers — the city snapshot (ROAD + TRNS) and the
// spill entry (SKEY + PREC): truncation at every section boundary, bad
// magic/version, flipped payload or checksum bytes, oversized and shrunk
// section lengths, trailing garbage, oversized list counts; every failure
// names its section and never returns a partial object — and the
// PrecomputeCacheEntry spill-record round trip.
#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
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

/// A city snapshot over the grid fixture: ROAD + TRNS.
Snapshot MakeCitySnapshot() {
  Snapshot snapshot;
  snapshot.road = GridRoad();
  snapshot.transit = GridTransit();
  return snapshot;
}

/// A spill entry over the grid fixture: SKEY + PREC.
PrecomputeCacheEntry MakeSpillEntry() {
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
  return entry;
}

using Bytes = std::vector<std::uint8_t>;
using Section = std::pair<std::uint32_t, Bytes>;

/// The (tag, payload) list of a well-formed container.
std::vector<Section> SplitContainer(const Bytes& bytes) {
  const auto infos = InspectSnapshot(bytes.data(), bytes.size());
  EXPECT_TRUE(infos.has_value());
  std::vector<Section> sections;
  std::size_t offset = 12 + 20 * infos->size();
  for (std::size_t i = 0; i < infos->size(); ++i) {
    std::uint32_t tag = 0;
    for (int b = 0; b < 4; ++b) {
      tag |= static_cast<std::uint32_t>(bytes[12 + 20 * i + b]) << (8 * b);
    }
    const std::size_t size = (*infos)[i].payload_bytes;
    sections.emplace_back(tag, Bytes(bytes.begin() + offset,
                                     bytes.begin() + offset + size));
    offset += size;
  }
  return sections;
}

/// A current-format container over `sections` with valid checksums, so
/// only the payloads (or the section list itself) can be hostile.
Bytes JoinContainer(const std::vector<Section>& sections) {
  Bytes out;
  AppendU32(&out, kSnapshotMagic);
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, static_cast<std::uint32_t>(sections.size()));
  for (const auto& [tag, payload] : sections) {
    AppendU32(&out, tag);
    AppendU64(&out, payload.size());
    AppendU64(&out, Fnv1a64(payload.data(), payload.size()));
  }
  for (const auto& section : sections) {
    out.insert(out.end(), section.second.begin(), section.second.end());
  }
  return out;
}

TEST(SnapshotContainerTest, FullSnapshotRoundTripsByteStably) {
  const Snapshot snapshot = MakeCitySnapshot();
  const std::vector<std::uint8_t> bytes = EncodeSnapshot(snapshot);
  Snapshot decoded;
  std::string error;
  ASSERT_TRUE(DecodeSnapshot(bytes.data(), bytes.size(), &decoded, &error))
      << error;
  // Byte stability: re-encoding the decoded snapshot reproduces the
  // input byte for byte — the load-save loop is the identity.
  EXPECT_EQ(EncodeSnapshot(decoded), bytes);
  EXPECT_EQ(JoinContainer(SplitContainer(bytes)), bytes);
}

TEST(SnapshotContainerTest, SaveLoadThroughAFile) {
  const Snapshot snapshot = MakeCitySnapshot();
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
}

TEST(SnapshotContainerTest, PrecomputeAndDemandSectionsAreRejected) {
  // A city snapshot holds the networks only. A current-format file that
  // also carries a precompute (PREC) or a demand ranking (DMND) section,
  // checksums valid, is refused by name rather than half-read.
  constexpr std::uint32_t kPrecomputeTag = 0x43455250u;  // "PREC"
  constexpr std::uint32_t kDemandTag = 0x444E4D44u;      // "DMND"
  const std::vector<Section> city =
      SplitContainer(EncodeSnapshot(MakeCitySnapshot()));
  Bytes precompute;
  EncodePrecompute(MakeSpillEntry().precompute, &precompute);
  Bytes scores;
  AppendU32(&scores, 1);
  AppendF64(&scores, 1.0);
  for (const auto& [tag, payload] :
       {Section{kPrecomputeTag, precompute}, Section{kDemandTag, scores}}) {
    std::vector<Section> sections = city;
    sections.emplace_back(tag, payload);
    const Bytes bytes = JoinContainer(sections);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes.data(), bytes.size(), &out, &error));
    EXPECT_NE(error.find(": unknown section or out of canonical order"),
              std::string::npos)
        << error;
    EXPECT_EQ(error.rfind("section PREC", 0) == 0, tag == kPrecomputeTag)
        << error;
  }
}

// ------------------------------------------------- malformed corpus ----
// Run over both containers: the city snapshot (ROAD + TRNS) and a spill
// entry (SKEY + PREC), the only reader of the precompute codec.

struct ContainerKind {
  std::string name;
  std::function<Bytes()> encode;
  /// Strict decode into an object pre-filled with a sentinel; sets
  /// *untouched to whether the sentinel survived.
  std::function<bool(const Bytes&, std::string*, bool*)> decode;
};

std::vector<ContainerKind> ContainerKinds() {
  return {
      {"City",
       [] { return EncodeSnapshot(MakeCitySnapshot()); },
       [](const Bytes& bytes, std::string* error, bool* untouched) {
         Snapshot out;
         out.transit.AddStop(0, {0.0, 0.0});  // sentinel
         const bool ok =
             DecodeSnapshot(bytes.data(), bytes.size(), &out, error);
         *untouched = out.transit.num_stops() == 1 &&
                      out.road.graph().num_vertices() == 0;
         return ok;
       }},
      {"SpillEntry",
       [] { return EncodePrecomputeCacheEntry(MakeSpillEntry()); },
       [](const Bytes& bytes, std::string* error, bool* untouched) {
         PrecomputeCacheEntry out;
         out.dataset = "sentinel";
         const bool ok = DecodePrecomputeCacheEntry(bytes.data(),
                                                    bytes.size(), &out, error);
         *untouched = out.dataset == "sentinel" &&
                      out.precompute.universe.num_edges() == 0;
         return ok;
       }},
  };
}

class SnapshotCorruptionTest
    : public ::testing::TestWithParam<ContainerKind> {
 protected:
  Bytes Encode() const { return GetParam().encode(); }

  /// Asserts decode fails, the diagnostic contains `needle`, and the
  /// output object is untouched (never partial).
  void ExpectRejected(const Bytes& bytes, const std::string& needle) const {
    std::string error;
    bool untouched = false;
    EXPECT_FALSE(GetParam().decode(bytes, &error, &untouched));
    EXPECT_NE(error.find(needle), std::string::npos)
        << "diagnostic \"" << error << "\" should mention \"" << needle
        << "\"";
    EXPECT_TRUE(untouched) << "failed decode must not touch *out";
  }
};

TEST_P(SnapshotCorruptionTest, TruncationAtEverySectionBoundary) {
  const Bytes bytes = Encode();
  const auto sections = InspectSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(sections.has_value());
  ASSERT_EQ(sections->size(), 2u);
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
    ExpectRejected(Bytes(bytes.begin(), bytes.begin() + boundary), "");
  }
  // One byte short of each boundary too — mid-section truncation.
  for (std::size_t boundary : boundaries) {
    if (boundary == 0) continue;
    ExpectRejected(Bytes(bytes.begin(), bytes.begin() + boundary - 1), "");
  }
}

TEST_P(SnapshotCorruptionTest, BadMagicAndVersion) {
  const Bytes bytes = Encode();
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  ExpectRejected(bad_magic, "bad magic");
  auto bad_version = bytes;
  bad_version[4] = 0xfe;
  ExpectRejected(bad_version, "unsupported format version");
  auto stale_version = bytes;
  stale_version[4] = 3;  // PREC stored Delta(e) itself before version 4
  ExpectRejected(stale_version, "unsupported format version 3");
  stale_version[4] = 4;  // PREC held tql2 trace increments before version 5
  ExpectRejected(stale_version, "unsupported format version 4");
}

TEST_P(SnapshotCorruptionTest, FlippedPayloadByteNamesItsSection) {
  const Bytes bytes = Encode();
  const auto sections = InspectSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(sections.has_value());
  std::size_t offset = 12 + sections->size() * 20;
  for (const auto& section : *sections) {
    auto corrupt = bytes;
    corrupt[offset] ^= 0x01;  // first payload byte of this section
    ExpectRejected(corrupt, "section " + section.tag + ": checksum mismatch");
    offset += section.payload_bytes;
  }
}

TEST_P(SnapshotCorruptionTest, FlippedChecksumByteNamesItsSection) {
  const Bytes bytes = Encode();
  const auto sections = InspectSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(sections.has_value());
  // Section table rows start at 12; checksum is bytes 12..19 of each row.
  for (std::size_t i = 0; i < sections->size(); ++i) {
    auto corrupt = bytes;
    corrupt[12 + 20 * i + 12] ^= 0x01;
    ExpectRejected(corrupt,
                   "section " + (*sections)[i].tag + ": checksum mismatch");
  }
}

TEST_P(SnapshotCorruptionTest, OversizedSectionLengthNeverReadsPastFile) {
  // Bump the first section's declared payload length (bytes 4..11 of its
  // table row) far beyond the file: the table walk must reject it before
  // any payload pointer is formed or allocation sized from it.
  auto corrupt = Encode();
  corrupt[12 + 4 + 3] = 0x7f;  // declared length += 0x7f000000
  ExpectRejected(corrupt, "declared length overruns file");
}

TEST_P(SnapshotCorruptionTest, ShrunkSectionLengthIsTrailingBytes) {
  auto corrupt = Encode();
  ASSERT_GT(corrupt[12 + 4], 0);  // first payload length, low byte
  corrupt[12 + 4] -= 1;  // one byte now unclaimed by any section
  ExpectRejected(corrupt, "");
}

TEST_P(SnapshotCorruptionTest, TrailingGarbageRejected) {
  Bytes bytes = Encode();
  bytes.push_back(0x00);
  ExpectRejected(bytes, "trailing bytes after last section");
}

TEST_P(SnapshotCorruptionTest, OversizedListCountInsideSectionIsBounded) {
  // Each section in turn gets a payload declaring an empty first list and
  // then 2^31 - 1 elements with no bytes behind them, under a *valid*
  // checksum: the bounded reader must reject the count (SKEY: the short
  // read) against the real payload size instead of allocating, and name
  // the section.
  const Bytes bytes = Encode();
  const std::vector<Section> sections = SplitContainer(bytes);
  const auto infos = InspectSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(infos.has_value());
  Bytes hostile;
  AppendU32(&hostile, 0);
  AppendU32(&hostile, 0x7fffffffu);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::vector<Section> mutated = sections;
    mutated[i].second = hostile;
    ExpectRejected(JoinContainer(mutated), "section " + (*infos)[i].tag);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Containers, SnapshotCorruptionTest, ::testing::ValuesIn(ContainerKinds()),
    [](const ::testing::TestParamInfo<ContainerKind>& info) {
      return info.param.name;
    });

TEST(SnapshotContainerTest, MissingFileIsADiagnosedLoadFailure) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot("/nonexistent/no.ctbs", &error).has_value());
  EXPECT_NE(error.find("no.ctbs"), std::string::npos);
  EXPECT_FALSE(
      LoadPrecomputeCacheEntry("/nonexistent/no.ctbs", &error).has_value());
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
