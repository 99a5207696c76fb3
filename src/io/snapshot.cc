#include "io/snapshot.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "io/bytes.h"

namespace ctbus::io {
namespace {

// Section tags, chosen so the on-disk bytes read as ASCII.
constexpr std::uint32_t kTagRoad = 0x44414F52u;        // "ROAD"
constexpr std::uint32_t kTagTransit = 0x534E5254u;     // "TRNS"
constexpr std::uint32_t kTagPrecompute = 0x43455250u;  // "PREC"
constexpr std::uint32_t kTagSpillKey = 0x59454B53u;    // "SKEY"

/// Longest dataset name accepted in a spill-key section.
constexpr std::size_t kMaxDatasetName = 4096;

std::string TagToAscii(std::uint32_t tag) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s.push_back(c >= 0x20 && c < 0x7f ? c : '?');
  }
  return s;
}

// -------------------------------------------------------- object bodies ----
// Encode*/Decode* pairs over an ongoing buffer/reader, shared by the
// standalone object API and the section payloads of the containers.

void EncodeGraphBody(const graph::Graph& graph,
                     std::vector<std::uint8_t>* out) {
  AppendU32(out, static_cast<std::uint32_t>(graph.num_vertices()));
  for (int v = 0; v < graph.num_vertices(); ++v) {
    AppendF64(out, graph.position(v).x);
    AppendF64(out, graph.position(v).y);
  }
  AppendU32(out, static_cast<std::uint32_t>(graph.num_edges()));
  for (int e = 0; e < graph.num_edges(); ++e) {
    const auto& edge = graph.edge(e);
    AppendI32(out, edge.u);
    AppendI32(out, edge.v);
    AppendF64(out, edge.length);
  }
}

bool DecodeGraphBody(ByteReader* reader, graph::Graph* out) {
  std::uint32_t num_vertices = 0;
  if (!reader->ReadCount("num_vertices", 16, &num_vertices)) return false;
  graph::Graph graph;
  for (std::uint32_t v = 0; v < num_vertices; ++v) {
    graph::Point p;
    if (!reader->ReadFiniteF64("vertex_x", &p.x)) return false;
    if (!reader->ReadFiniteF64("vertex_y", &p.y)) return false;
    graph.AddVertex(p);
  }
  std::uint32_t num_edges = 0;
  if (!reader->ReadCount("num_edges", 16, &num_edges)) return false;
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    std::int32_t u = 0;
    std::int32_t v = 0;
    double length = 0.0;
    if (!reader->ReadI32("edge_u", &u)) return false;
    if (!reader->ReadI32("edge_v", &v)) return false;
    if (!reader->ReadFiniteF64("edge_length", &length)) return false;
    if (u < 0 || u >= graph.num_vertices() || v < 0 ||
        v >= graph.num_vertices()) {
      return reader->Fail("edge_endpoints", "vertex id out of range");
    }
    if (length < 0.0) return reader->Fail("edge_length", "negative length");
    if (graph.AddEdge(u, v, length) < 0) {
      return reader->Fail("edge_endpoints", "duplicate or self-loop edge");
    }
  }
  *out = std::move(graph);
  return true;
}

void EncodeRoadBody(const graph::RoadNetwork& road,
                    std::vector<std::uint8_t>* out) {
  EncodeGraphBody(road.graph(), out);
  AppendU32(out, static_cast<std::uint32_t>(road.graph().num_edges()));
  for (int e = 0; e < road.graph().num_edges(); ++e) {
    AppendI64(out, road.trip_count(e));
  }
}

bool DecodeRoadBody(ByteReader* reader, graph::RoadNetwork* out) {
  graph::Graph graph;
  if (!DecodeGraphBody(reader, &graph)) return false;
  std::uint32_t num_counts = 0;
  if (!reader->ReadCount("num_trip_counts", 8, &num_counts)) return false;
  if (static_cast<int>(num_counts) != graph.num_edges()) {
    return reader->Fail("num_trip_counts",
                        "trip-count table does not match edge count");
  }
  graph::RoadNetwork road(std::move(graph));
  for (std::uint32_t e = 0; e < num_counts; ++e) {
    std::int64_t count = 0;
    if (!reader->ReadI64("trip_count", &count)) return false;
    if (count < 0) return reader->Fail("trip_count", "negative trip count");
    if (count != 0) road.AddTripCount(static_cast<int>(e), count);
  }
  *out = std::move(road);
  return true;
}

void EncodeTransitBody(const graph::TransitNetwork& transit,
                       std::vector<std::uint8_t>* out) {
  AppendU32(out, static_cast<std::uint32_t>(transit.num_stops()));
  for (int s = 0; s < transit.num_stops(); ++s) {
    const auto& stop = transit.stop(s);
    AppendI32(out, stop.road_vertex);
    AppendF64(out, stop.position.x);
    AppendF64(out, stop.position.y);
  }
  // Every edge, active or not: inactive edges are bookkeeping a commit /
  // RemoveRoute cycle legitimately leaves behind, and the universe's
  // existing-edge section indexes by transit edge id — dropping them
  // would renumber. Per-edge route lists are NOT stored: replaying the
  // routes below rebuilds them bit-identically.
  AppendU32(out, static_cast<std::uint32_t>(transit.num_edges()));
  for (int e = 0; e < transit.num_edges(); ++e) {
    const auto& edge = transit.edge(e);
    AppendI32(out, edge.u);
    AppendI32(out, edge.v);
    AppendF64(out, edge.length);
    AppendIntList(out, edge.road_edges);
  }
  AppendU32(out, static_cast<std::uint32_t>(transit.num_routes()));
  for (int r = 0; r < transit.num_routes(); ++r) {
    const auto& route = transit.route(r);
    AppendU8(out, route.active ? 1 : 0);
    AppendIntList(out, route.stops);
  }
}

bool DecodeTransitBody(ByteReader* reader, graph::TransitNetwork* out) {
  std::uint32_t num_stops = 0;
  if (!reader->ReadCount("num_stops", 20, &num_stops)) return false;
  graph::TransitNetwork transit;
  for (std::uint32_t s = 0; s < num_stops; ++s) {
    std::int32_t road_vertex = 0;
    graph::Point p;
    if (!reader->ReadI32("stop_road_vertex", &road_vertex)) return false;
    if (!reader->ReadFiniteF64("stop_x", &p.x)) return false;
    if (!reader->ReadFiniteF64("stop_y", &p.y)) return false;
    if (road_vertex < 0) {
      return reader->Fail("stop_road_vertex", "negative road vertex");
    }
    transit.AddStop(road_vertex, p);
  }
  std::uint32_t num_edges = 0;
  if (!reader->ReadCount("num_edges", 20, &num_edges)) return false;
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    std::int32_t u = 0;
    std::int32_t v = 0;
    double length = 0.0;
    std::vector<int> road_edges;
    if (!reader->ReadI32("transit_edge_u", &u)) return false;
    if (!reader->ReadI32("transit_edge_v", &v)) return false;
    if (!reader->ReadFiniteF64("transit_edge_length", &length)) return false;
    if (!reader->ReadIntList("transit_edge_road_edges", &road_edges)) {
      return false;
    }
    if (u < 0 || u >= transit.num_stops() || v < 0 ||
        v >= transit.num_stops() || u == v) {
      return reader->Fail("transit_edge_endpoints",
                          "stop id out of range or self-loop");
    }
    if (length < 0.0) {
      return reader->Fail("transit_edge_length", "negative length");
    }
    for (int re : road_edges) {
      if (re < 0) {
        return reader->Fail("transit_edge_road_edges",
                            "negative road edge id");
      }
    }
    if (transit.AddEdge(u, v, length, std::move(road_edges)) !=
        static_cast<int>(e)) {
      return reader->Fail("transit_edge_endpoints", "duplicate transit edge");
    }
  }
  // Routes replay through the public API in id order: AddRoute appends
  // each route id to its edges' route lists in ascending order, and
  // removing the inactive ones afterwards erases exactly those ids — the
  // same ascending-active-subset every history of AddRoute/RemoveRoute
  // calls leaves behind, so the rebuilt lists are bit-identical.
  std::uint32_t num_routes = 0;
  if (!reader->ReadCount("num_routes", 5, &num_routes)) return false;
  std::vector<bool> route_active;
  route_active.reserve(num_routes);
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    bool active = false;
    std::vector<int> stops;
    if (!reader->ReadBool("route_active", &active)) return false;
    if (!reader->ReadIntList("route_stops", &stops)) return false;
    if (stops.size() < 2) {
      return reader->Fail("route_stops", "a route needs at least two stops");
    }
    for (std::size_t i = 0; i < stops.size(); ++i) {
      if (stops[i] < 0 || stops[i] >= transit.num_stops()) {
        return reader->Fail("route_stops", "stop id out of range");
      }
      if (i > 0 &&
          !transit.AnyEdgeBetween(stops[i - 1], stops[i]).has_value()) {
        return reader->Fail("route_stops",
                            "consecutive stops have no transit edge");
      }
    }
    transit.AddRoute(stops);
    route_active.push_back(active);
  }
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    if (!route_active[r]) transit.RemoveRoute(static_cast<int>(r));
  }
  *out = std::move(transit);
  return true;
}

void EncodeUniverseBody(const core::EdgeUniverse& universe,
                        std::vector<std::uint8_t>* out) {
  AppendU32(out, static_cast<std::uint32_t>(universe.num_stops()));
  AppendU32(out, static_cast<std::uint32_t>(universe.num_edges()));
  for (int e = 0; e < universe.num_edges(); ++e) {
    const auto& edge = universe.edge(e);
    AppendI32(out, edge.u);
    AppendI32(out, edge.v);
    AppendU8(out, edge.is_new ? 1 : 0);
    AppendF64(out, edge.length);
    AppendF64(out, edge.straight_distance);
    AppendF64(out, edge.demand);
    AppendI32(out, edge.transit_edge);
    AppendIntList(out, edge.road_edges);
  }
}

bool DecodeUniverseBody(ByteReader* reader, core::EdgeUniverse* out) {
  std::uint32_t num_stops = 0;
  if (!reader->ReadCount("universe_num_stops", 0, &num_stops)) return false;
  std::uint32_t num_edges = 0;
  // 41 bytes per edge minimum (fixed fields + empty road-edge list).
  if (!reader->ReadCount("universe_num_edges", 41, &num_edges)) return false;
  // num_stops only sizes the incidence index; bound it by the payload the
  // file actually shipped (a stop without edges costs nothing to encode,
  // so the bound is deliberately generous but still allocation-safe).
  if (num_stops > 2 * num_edges + 1024u * 1024u) {
    return reader->Fail("universe_num_stops", "stop count above bound");
  }
  std::vector<core::PlannableEdge> edges;
  edges.reserve(num_edges);
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    core::PlannableEdge edge;
    std::int32_t u = 0;
    std::int32_t v = 0;
    std::uint8_t is_new = 0;
    std::int32_t transit_edge = 0;
    if (!reader->ReadI32("universe_edge_u", &u)) return false;
    if (!reader->ReadI32("universe_edge_v", &v)) return false;
    if (!reader->ReadU8("universe_edge_is_new", &is_new)) return false;
    if (!reader->ReadFiniteF64("universe_edge_length", &edge.length)) {
      return false;
    }
    if (!reader->ReadFiniteF64("universe_edge_straight",
                               &edge.straight_distance)) {
      return false;
    }
    if (!reader->ReadFiniteF64("universe_edge_demand", &edge.demand)) {
      return false;
    }
    if (!reader->ReadI32("universe_edge_transit_edge", &transit_edge)) {
      return false;
    }
    if (!reader->ReadIntList("universe_edge_road_edges", &edge.road_edges)) {
      return false;
    }
    if (is_new > 1) {
      return reader->Fail("universe_edge_is_new", "flag byte not 0 or 1");
    }
    if (u < 0 || u >= static_cast<std::int32_t>(num_stops) || v < 0 ||
        v >= static_cast<std::int32_t>(num_stops) || u == v) {
      return reader->Fail("universe_edge_endpoints",
                          "stop id out of range or self-loop");
    }
    edge.is_new = is_new != 0;
    if (edge.is_new ? transit_edge != -1 : transit_edge < 0) {
      return reader->Fail("universe_edge_transit_edge",
                          "inconsistent with is_new flag");
    }
    for (int re : edge.road_edges) {
      if (re < 0) {
        return reader->Fail("universe_edge_road_edges",
                            "negative road edge id");
      }
    }
    edge.u = u;
    edge.v = v;
    edge.transit_edge = transit_edge;
    edges.push_back(std::move(edge));
  }
  *out = core::EdgeUniverse::FromEdges(std::move(edges),
                                       static_cast<int>(num_stops));
  return true;
}

void EncodePrecomputeBody(const core::Precompute& precompute,
                          std::vector<std::uint8_t>* out) {
  // Delta tr(e) and tr_0, not Delta(e): increments are rebuilt on decode
  // by the same Precompute::FillIncrements every other route uses.
  EncodeUniverseBody(precompute.universe, out);
  AppendU32(out,
            static_cast<std::uint32_t>(precompute.trace_increments.size()));
  for (double inc : precompute.trace_increments) AppendF64(out, inc);
  AppendF64(out, precompute.base_trace);
  const auto& stats = precompute.stats;
  AppendF64(out, stats.universe_seconds);
  AppendF64(out, stats.increments_seconds);
  AppendI32(out, stats.num_new_edges);
  AppendU8(out, stats.derived ? 1 : 0);
  AppendI32(out, stats.num_increments_recomputed);
  AppendI32(out, stats.num_increments_carried);
  AppendI32(out, stats.threads_used);
}

bool DecodePrecomputeBody(ByteReader* reader, core::Precompute* out) {
  core::Precompute precompute;
  if (!DecodeUniverseBody(reader, &precompute.universe)) return false;
  std::uint32_t num_increments = 0;
  if (!reader->ReadCount("num_trace_increments", 8, &num_increments)) {
    return false;
  }
  if (static_cast<int>(num_increments) != precompute.universe.num_edges()) {
    return reader->Fail("num_trace_increments",
                        "increment table does not match universe edge count");
  }
  precompute.trace_increments.reserve(num_increments);
  for (std::uint32_t i = 0; i < num_increments; ++i) {
    double inc = 0.0;
    if (!reader->ReadFiniteF64("trace_increment", &inc)) return false;
    precompute.trace_increments.push_back(inc);
  }
  if (!reader->ReadFiniteF64("base_trace", &precompute.base_trace)) {
    return false;
  }
  if (!(precompute.base_trace > 0.0)) {
    return reader->Fail("base_trace", "not positive");
  }
  precompute.FillIncrements();
  for (double inc : precompute.increments) {
    if (!std::isfinite(inc)) {
      return reader->Fail("trace_increment", "Delta(e) not finite");
    }
  }
  auto& stats = precompute.stats;
  if (!reader->ReadFiniteF64("stats_universe_seconds",
                             &stats.universe_seconds) ||
      !reader->ReadFiniteF64("stats_increments_seconds",
                             &stats.increments_seconds) ||
      !reader->ReadI32("stats_num_new_edges", &stats.num_new_edges) ||
      !reader->ReadBool("stats_derived", &stats.derived) ||
      !reader->ReadI32("stats_recomputed",
                       &stats.num_increments_recomputed) ||
      !reader->ReadI32("stats_carried", &stats.num_increments_carried) ||
      !reader->ReadI32("stats_threads_used", &stats.threads_used)) {
    return false;
  }
  if (stats.num_new_edges != precompute.universe.num_new_edges()) {
    return reader->Fail("stats_num_new_edges",
                        "does not match universe new-edge count");
  }
  *out = std::move(precompute);
  return true;
}

void EncodeProvenanceBody(const PrecomputeProvenance& provenance,
                          std::vector<std::uint8_t>* out) {
  AppendF64(out, provenance.tau);
  AppendI32(out, provenance.probes);
  AppendI32(out, provenance.lanczos_steps);
  AppendU64(out, provenance.seed);
}

bool DecodeProvenanceBody(ByteReader* reader,
                          PrecomputeProvenance* out) {
  PrecomputeProvenance p;
  if (!reader->ReadFiniteF64("provenance_tau", &p.tau) ||
      !reader->ReadI32("provenance_probes", &p.probes) ||
      !reader->ReadI32("provenance_lanczos_steps", &p.lanczos_steps) ||
      !reader->ReadU64("provenance_seed", &p.seed)) {
    return false;
  }
  *out = p;
  return true;
}

// ----------------------------------------------------------- container ----

struct SectionBlob {
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> EncodeContainer(
    const std::vector<SectionBlob>& sections) {
  std::vector<std::uint8_t> out;
  std::size_t total = 12 + sections.size() * 20;
  for (const SectionBlob& s : sections) total += s.payload.size();
  out.reserve(total);
  AppendU32(&out, kSnapshotMagic);
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, static_cast<std::uint32_t>(sections.size()));
  for (const SectionBlob& s : sections) {
    AppendU32(&out, s.tag);
    AppendU64(&out, static_cast<std::uint64_t>(s.payload.size()));
    AppendU64(&out, Fnv1a64(s.payload.data(), s.payload.size()));
  }
  for (const SectionBlob& s : sections) {
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }
  return out;
}

struct SectionView {
  std::uint32_t tag = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::uint64_t checksum = 0;
};

bool FailContainer(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Header + section table parse shared by decode and inspect. Bounds are
/// validated against the real image before any payload pointer is formed;
/// checksums are NOT verified here (Inspect reports them per section,
/// decode enforces them before touching a payload).
bool ParseContainer(const std::uint8_t* data, std::size_t size,
                    std::vector<SectionView>* out, std::string* error) {
  ByteReader header(data, std::min<std::size_t>(size, 12), "header: ");
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t num_sections = 0;
  if (!header.ReadU32("magic", &magic) ||
      !header.ReadU32("format_version", &version) ||
      !header.ReadU32("num_sections", &num_sections)) {
    return FailContainer(error, header.error());
  }
  if (magic != kSnapshotMagic) {
    return FailContainer(error, "header: bad magic (not a CTBS snapshot)");
  }
  if (version != kSnapshotFormatVersion) {
    return FailContainer(error, "header: unsupported format version " +
                                    std::to_string(version));
  }
  if (num_sections > kMaxSnapshotSections) {
    return FailContainer(error, "header: section count above bound");
  }
  const std::size_t table_bytes = static_cast<std::size_t>(num_sections) * 20;
  if (size - 12 < table_bytes) {
    return FailContainer(error, "header: truncated section table");
  }
  ByteReader table(data + 12, table_bytes, "section table: ");
  std::vector<SectionView> sections;
  sections.reserve(num_sections);
  std::size_t payload_offset = 12 + table_bytes;
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    SectionView section;
    std::uint64_t payload_bytes = 0;
    if (!table.ReadU32("tag", &section.tag) ||
        !table.ReadU64("payload_bytes", &payload_bytes) ||
        !table.ReadU64("checksum", &section.checksum)) {
      return FailContainer(error, table.error());
    }
    if (payload_bytes > size - payload_offset) {
      return FailContainer(error, "section " + TagToAscii(section.tag) +
                                      ": declared length overruns file");
    }
    section.data = data + payload_offset;
    section.size = static_cast<std::size_t>(payload_bytes);
    payload_offset += section.size;
    for (const SectionView& prior : sections) {
      if (prior.tag == section.tag) {
        return FailContainer(error, "section " + TagToAscii(section.tag) +
                                        ": duplicate section");
      }
    }
    sections.push_back(section);
  }
  if (payload_offset != size) {
    return FailContainer(error,
                         "container: trailing bytes after last section");
  }
  *out = std::move(sections);
  return true;
}

/// Checksum gate: verified over the raw payload BEFORE any decode of it,
/// so no corrupt section ever drives an allocation or a partial object.
bool VerifySectionChecksum(const SectionView& section, std::string* error) {
  if (Fnv1a64(section.data, section.size) != section.checksum) {
    return FailContainer(error, "section " + TagToAscii(section.tag) +
                                    ": checksum mismatch");
  }
  return true;
}

bool DecodeSection(const SectionView& section, graph::RoadNetwork* out,
                   std::string* error) {
  if (!VerifySectionChecksum(section, error)) return false;
  ByteReader reader(section.data, section.size, "section ROAD: ");
  if (!DecodeRoadBody(&reader, out) || !reader.ExpectEnd()) {
    return FailContainer(error, reader.error());
  }
  return true;
}

bool DecodeSection(const SectionView& section, graph::TransitNetwork* out,
                   std::string* error) {
  if (!VerifySectionChecksum(section, error)) return false;
  ByteReader reader(section.data, section.size, "section TRNS: ");
  if (!DecodeTransitBody(&reader, out) || !reader.ExpectEnd()) {
    return FailContainer(error, reader.error());
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------- public ----

bool PrecomputeProvenance::operator==(
    const PrecomputeProvenance& other) const {
  return tau == other.tau && probes == other.probes &&
         lanczos_steps == other.lanczos_steps && seed == other.seed;
}

PrecomputeProvenance MakeProvenance(const core::CtBusOptions& options) {
  // A NaN key never equals itself (every cache lookup would miss), and a
  // file carrying it fails its own verify. A throw, not an assert, so it
  // holds in NDEBUG builds too.
  if (std::isnan(options.tau)) {
    throw std::invalid_argument("MakeProvenance: tau must not be NaN");
  }
  PrecomputeProvenance p;
  // Signed zero folded: equal keys must serialize and hash alike.
  p.tau = options.tau == 0.0 ? 0.0 : options.tau;
  p.probes = options.precompute_estimator.probes;
  p.lanczos_steps = options.precompute_estimator.lanczos_steps;
  p.seed = options.precompute_estimator.seed;
  return p;
}

std::uint64_t NetworkFingerprint(const graph::RoadNetwork& road,
                                 const graph::TransitNetwork& transit) {
  std::vector<std::uint8_t> bytes;
  EncodeRoadBody(road, &bytes);
  EncodeTransitBody(transit, &bytes);
  return Fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t StableSpillHash(const std::string& dataset,
                              std::uint64_t snapshot_version,
                              const PrecomputeProvenance& provenance) {
  std::vector<std::uint8_t> bytes;
  AppendString(&bytes, dataset);
  AppendU64(&bytes, snapshot_version);
  EncodeProvenanceBody(provenance, &bytes);
  return Fnv1a64(bytes.data(), bytes.size());
}

// Standalone object pairs: encode appends the body; decode wraps the whole
// buffer in a reader and requires full consumption.
#define CTBUS_SNAPSHOT_OBJECT_API(Name, Type, Body)                         \
  void Encode##Name(const Type& value, std::vector<std::uint8_t>* out) {    \
    Encode##Body(value, out);                                               \
  }                                                                         \
  bool Decode##Name(const std::uint8_t* data, std::size_t size, Type* out, \
                    std::string* error) {                                   \
    ByteReader reader(data, size);                                          \
    Type value;                                                             \
    if (!Decode##Body(&reader, &value) || !reader.ExpectEnd()) {            \
      if (error != nullptr) *error = reader.error();                        \
      return false;                                                         \
    }                                                                       \
    *out = std::move(value);                                                \
    return true;                                                            \
  }

CTBUS_SNAPSHOT_OBJECT_API(RoadNetwork, graph::RoadNetwork, RoadBody)
CTBUS_SNAPSHOT_OBJECT_API(TransitNetwork, graph::TransitNetwork, TransitBody)
CTBUS_SNAPSHOT_OBJECT_API(EdgeUniverse, core::EdgeUniverse, UniverseBody)
CTBUS_SNAPSHOT_OBJECT_API(Precompute, core::Precompute, PrecomputeBody)

#undef CTBUS_SNAPSHOT_OBJECT_API

std::vector<std::uint8_t> EncodeSnapshot(const Snapshot& snapshot) {
  std::vector<SectionBlob> sections;
  sections.push_back({kTagRoad, {}});
  EncodeRoadBody(snapshot.road, &sections.back().payload);
  sections.push_back({kTagTransit, {}});
  EncodeTransitBody(snapshot.transit, &sections.back().payload);
  return EncodeContainer(sections);
}

bool DecodeSnapshot(const std::uint8_t* data, std::size_t size,
                    Snapshot* out, std::string* error) {
  std::vector<SectionView> sections;
  if (!ParseContainer(data, size, &sections, error)) return false;
  // Canonical order keeps the format byte-stable and lets TRNS validate
  // against ROAD. A city snapshot holds the networks only: the precompute
  // lives in spill entries (EncodePrecomputeCacheEntry), never here.
  static constexpr std::uint32_t kOrder[] = {kTagRoad, kTagTransit};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (i >= 2 || sections[i].tag != kOrder[i]) {
      return FailContainer(
          error, "section " + TagToAscii(sections[i].tag) +
                     ": unknown section or out of canonical order");
    }
  }
  if (sections.size() != 2) {
    return FailContainer(error,
                         "container: ROAD and TRNS sections are required");
  }

  Snapshot snapshot;
  if (!DecodeSection(sections[0], &snapshot.road, error)) return false;
  if (!DecodeSection(sections[1], &snapshot.transit, error)) return false;
  // Cross-section references: every id the transit network aims at the
  // road network must exist, same contract DatasetCatalog enforces on the
  // text path.
  const int num_road_vertices = snapshot.road.graph().num_vertices();
  const int num_road_edges = snapshot.road.graph().num_edges();
  for (int s = 0; s < snapshot.transit.num_stops(); ++s) {
    if (snapshot.transit.stop(s).road_vertex >= num_road_vertices) {
      return FailContainer(error, "section TRNS: stop " + std::to_string(s) +
                                      " names a missing road vertex");
    }
  }
  for (int e = 0; e < snapshot.transit.num_edges(); ++e) {
    for (int re : snapshot.transit.edge(e).road_edges) {
      if (re >= num_road_edges) {
        return FailContainer(error, "section TRNS: transit edge " +
                                        std::to_string(e) +
                                        " crosses a missing road edge");
      }
    }
  }
  *out = std::move(snapshot);
  return true;
}

bool SaveSnapshot(const Snapshot& snapshot, const std::string& path,
                  std::string* error) {
  return WriteFileBytes(path, EncodeSnapshot(snapshot), error);
}

std::optional<Snapshot> LoadSnapshot(const std::string& path,
                                     std::string* error) {
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes, error)) return std::nullopt;
  Snapshot snapshot;
  std::string decode_error;
  if (!DecodeSnapshot(bytes.data(), bytes.size(), &snapshot,
                      &decode_error)) {
    if (error != nullptr) *error = path + ": " + decode_error;
    return std::nullopt;
  }
  return snapshot;
}

std::vector<std::uint8_t> EncodePrecomputeCacheEntry(
    const PrecomputeCacheEntry& entry) {
  std::vector<SectionBlob> sections;
  sections.push_back({kTagSpillKey, {}});
  auto* key = &sections.back().payload;
  AppendString(key, entry.dataset);
  AppendU64(key, entry.snapshot_version);
  AppendU64(key, entry.network_fingerprint);
  EncodeProvenanceBody(entry.provenance, key);
  sections.push_back({kTagPrecompute, {}});
  EncodePrecomputeBody(entry.precompute, &sections.back().payload);
  return EncodeContainer(sections);
}

bool DecodePrecomputeCacheEntry(const std::uint8_t* data, std::size_t size,
                                PrecomputeCacheEntry* out,
                                std::string* error) {
  std::vector<SectionView> sections;
  if (!ParseContainer(data, size, &sections, error)) return false;
  if (sections.size() != 2 || sections[0].tag != kTagSpillKey ||
      sections[1].tag != kTagPrecompute) {
    return FailContainer(
        error, "container: a cache entry is exactly SKEY then PREC");
  }
  if (!VerifySectionChecksum(sections[0], error)) return false;
  if (!VerifySectionChecksum(sections[1], error)) return false;
  PrecomputeCacheEntry entry;
  {
    ByteReader reader(sections[0].data, sections[0].size,
                          "section SKEY: ");
    if (!reader.ReadString("dataset", kMaxDatasetName, &entry.dataset) ||
        !reader.ReadU64("snapshot_version", &entry.snapshot_version) ||
        !reader.ReadU64("network_fingerprint",
                        &entry.network_fingerprint) ||
        !DecodeProvenanceBody(&reader, &entry.provenance) ||
        !reader.ExpectEnd()) {
      return FailContainer(error, reader.error());
    }
  }
  {
    ByteReader reader(sections[1].data, sections[1].size,
                          "section PREC: ");
    if (!DecodePrecomputeBody(&reader, &entry.precompute) ||
        !reader.ExpectEnd()) {
      return FailContainer(error, reader.error());
    }
  }
  *out = std::move(entry);
  return true;
}

bool SavePrecomputeCacheEntry(const PrecomputeCacheEntry& entry,
                              const std::string& path, std::string* error) {
  return WriteFileBytes(path, EncodePrecomputeCacheEntry(entry), error);
}

std::optional<PrecomputeCacheEntry> LoadPrecomputeCacheEntry(
    const std::string& path, std::string* error) {
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes, error)) return std::nullopt;
  PrecomputeCacheEntry entry;
  std::string decode_error;
  if (!DecodePrecomputeCacheEntry(bytes.data(), bytes.size(), &entry,
                                  &decode_error)) {
    if (error != nullptr) *error = path + ": " + decode_error;
    return std::nullopt;
  }
  return entry;
}

std::optional<std::vector<SnapshotSectionInfo>> InspectSnapshot(
    const std::uint8_t* data, std::size_t size, std::string* error) {
  std::vector<SectionView> sections;
  if (!ParseContainer(data, size, &sections, error)) return std::nullopt;
  std::vector<SnapshotSectionInfo> infos;
  infos.reserve(sections.size());
  for (const SectionView& section : sections) {
    SnapshotSectionInfo info;
    info.tag = TagToAscii(section.tag);
    info.payload_bytes = section.size;
    info.checksum = section.checksum;
    info.checksum_ok =
        Fnv1a64(section.data, section.size) == section.checksum;
    infos.push_back(std::move(info));
  }
  return infos;
}

bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return FailContainer(error, path + ": cannot open for reading");
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return FailContainer(error, path + ": cannot determine size");
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    return FailContainer(error, path + ": short read");
  }
  return true;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes,
                    std::string* error) {
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf) {
    return FailContainer(error, path + ": cannot open for writing");
  }
  if (!bytes.empty()) {
    outf.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  outf.flush();
  if (!outf) return FailContainer(error, path + ": write failed");
  return true;
}

}  // namespace ctbus::io
