// ctbus_snapshot: build / inspect / verify CTBS binary snapshots
// (io/snapshot.h). The build subcommand is the cold-start accelerator's
// front door: it turns a text dataset (gen:: preset or record files) into
// the binary form DatasetCatalog and PlanningService load in milliseconds,
// optionally baking in the Delta(e) precompute and demand ranking so a
// restarted server answers its first query without a single Dijkstra or
// Lanczos call.
//
//   Build (exactly one source; --trips only with files):
//     ctbus_snapshot build --out city.ctbs
//         (--preset NAME [--scale X] | --road R.tsv --transit T.tsv
//          [--trips TRIPS.csv])
//         [--with-precompute [--tau M] [--probes N] [--lanczos-steps N]
//          [--seed N] [--with-demand]]
//
//   Inspect — print the section table (tag, bytes, checksum, ok):
//     ctbus_snapshot inspect city.ctbs
//
//   Verify — full strict decode; exit 0 only if every byte checks out:
//     ctbus_snapshot verify city.ctbs
//
// Exit codes: 0 ok, 1 build/verify failure (corrupt, truncated, stale
// format, checksum mismatch — the diagnostic names the failing section),
// 2 usage. CI injects a flipped byte and requires `verify` to exit 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
#include "demand/ranked_list.h"
#include "gen/datasets.h"
#include "io/csv.h"
#include "io/network_io.h"
#include "io/parse.h"
#include "io/snapshot.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "ctbus_snapshot: %s\n", message.c_str());
  std::exit(2);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "ctbus_snapshot: %s\n", message.c_str());
  return 1;
}

struct BuildArgs {
  std::string out;
  std::string preset;
  double scale = 1.0;
  std::string road_path;
  std::string transit_path;
  std::string trips_path;
  bool with_precompute = false;
  bool with_demand = false;
  ctbus::core::CtBusOptions options;
};

/// Streams the trip CSV into road trip counts — the same contract as
/// DatasetCatalog's ingestion (>= 2 adjacent road vertices per row).
bool IngestTrips(const std::string& path, ctbus::graph::RoadNetwork* road,
                 std::string* error) {
  std::string row_error;
  const bool ok = ctbus::io::ForEachCsvRow(
      path,
      [&](std::vector<std::string>&& fields, std::size_t line_number) {
        const auto fail = [&](const std::string& reason) {
          row_error = ctbus::io::LineError(path, line_number, reason);
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
          if (!ctbus::io::ParseInt(fields[i], &vertex)) {
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
        return true;
      },
      error);
  if (!ok) return false;
  if (!row_error.empty()) {
    *error = row_error;
    return false;
  }
  return true;
}

int RunBuild(const BuildArgs& args) {
  ctbus::io::Snapshot snapshot;
  if (!args.preset.empty()) {
    if (!ctbus::gen::HasDataset(args.preset)) {
      return Fail("unknown preset '" + args.preset + "'");
    }
    ctbus::gen::Dataset dataset =
        ctbus::gen::MakeDatasetByName(args.preset, args.scale);
    snapshot.road = std::move(dataset.road);
    snapshot.transit = std::move(dataset.transit);
  } else {
    std::string error;
    auto road = ctbus::io::LoadRoadNetwork(args.road_path, &error);
    if (!road.has_value()) return Fail(error);
    auto transit = ctbus::io::LoadTransitNetwork(args.transit_path, &error);
    if (!transit.has_value()) return Fail(error);
    snapshot.road = std::move(*road);
    snapshot.transit = std::move(*transit);
    if (!args.trips_path.empty() &&
        !IngestTrips(args.trips_path, &snapshot.road, &error)) {
      return Fail(error);
    }
  }

  if (args.with_precompute) {
    snapshot.precompute = ctbus::core::PlanningContext::RunPrecompute(
        snapshot.road, snapshot.transit, args.options);
    snapshot.provenance = ctbus::io::MakeProvenance(args.options);
    snapshot.has_precompute = true;
    if (args.with_demand) {
      snapshot.demand = ctbus::demand::RankedList(
          snapshot.precompute.universe.DemandScores());
      snapshot.has_demand = true;
    }
  }

  std::string error;
  if (!ctbus::io::SaveSnapshot(snapshot, args.out, &error)) {
    return Fail(error);
  }
  std::printf(
      "ctbus_snapshot: wrote %s (%d road vertices, %d road edges, %d "
      "stops, %d routes%s%s)\n",
      args.out.c_str(), snapshot.road.graph().num_vertices(),
      snapshot.road.graph().num_edges(), snapshot.transit.num_stops(),
      snapshot.transit.num_routes(),
      snapshot.has_precompute ? ", precompute" : "",
      snapshot.has_demand ? ", demand" : "");
  return 0;
}

BuildArgs ParseBuildArgs(int argc, char** argv) {
  BuildArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("flag " + flag + " needs a value");
      return argv[++i];
    };
    auto int_value = [&](int min_value) {
      const std::string token = value();
      int parsed = 0;
      if (!ctbus::io::ParseInt(token, &parsed) || parsed < min_value) {
        Die("flag " + flag + ": bad value \"" + token + "\"");
      }
      return parsed;
    };
    auto double_value = [&](double min_value) {
      const std::string token = value();
      double parsed = 0.0;
      // NaN compares false against min_value, so finiteness is checked
      // explicitly: a NaN tau would bake a file its own verify rejects.
      if (!ctbus::io::ParseDouble(token, &parsed) || !std::isfinite(parsed) ||
          parsed < min_value) {
        Die("flag " + flag + ": bad value \"" + token + "\"");
      }
      return parsed;
    };
    if (flag == "--out") {
      args.out = value();
    } else if (flag == "--preset") {
      args.preset = value();
    } else if (flag == "--scale") {
      args.scale = double_value(0.0);
    } else if (flag == "--road") {
      args.road_path = value();
    } else if (flag == "--transit") {
      args.transit_path = value();
    } else if (flag == "--trips") {
      args.trips_path = value();
    } else if (flag == "--with-precompute") {
      args.with_precompute = true;
    } else if (flag == "--with-demand") {
      args.with_demand = true;
    } else if (flag == "--tau") {
      args.options.tau = double_value(0.0);
    } else if (flag == "--probes") {
      args.options.precompute_estimator.probes = int_value(1);
    } else if (flag == "--lanczos-steps") {
      args.options.precompute_estimator.lanczos_steps = int_value(1);
    } else if (flag == "--seed") {
      args.options.precompute_estimator.seed =
          static_cast<std::uint64_t>(int_value(0));
    } else {
      Die("unknown build flag " + flag);
    }
  }
  if (args.out.empty()) Die("build needs --out");
  const bool from_preset = !args.preset.empty();
  const bool from_files =
      !args.road_path.empty() || !args.transit_path.empty();
  if (from_preset == from_files) {
    Die("build needs exactly one source: --preset or --road + --transit");
  }
  if (from_files && (args.road_path.empty() || args.transit_path.empty())) {
    Die("file builds need both --road and --transit");
  }
  if (from_preset && !args.trips_path.empty()) {
    Die("--trips only applies to file sources (presets embed demand)");
  }
  if (args.with_demand && !args.with_precompute) {
    Die("--with-demand requires --with-precompute (scores come from the "
        "universe)");
  }
  return args;
}

int RunInspect(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::string error;
  if (!ctbus::io::ReadFileBytes(path, &bytes, &error)) return Fail(error);
  const auto sections =
      ctbus::io::InspectSnapshot(bytes.data(), bytes.size(), &error);
  if (!sections.has_value()) return Fail(path + ": " + error);
  std::printf("%s: %zu bytes, format v%u, %zu sections\n", path.c_str(),
              bytes.size(), ctbus::io::kSnapshotFormatVersion,
              sections->size());
  bool all_ok = true;
  for (const auto& section : *sections) {
    std::printf("  %s  %12llu bytes  checksum %016llx  %s\n",
                section.tag.c_str(),
                static_cast<unsigned long long>(section.payload_bytes),
                static_cast<unsigned long long>(section.checksum),
                section.checksum_ok ? "ok" : "MISMATCH");
    all_ok = all_ok && section.checksum_ok;
  }
  return all_ok ? 0 : 1;
}

int RunVerify(const std::string& path) {
  // Full strict decode — not just the checksum pass: verify also proves
  // every section's payload parses and cross-references hold.
  std::string error;
  const auto snapshot = ctbus::io::LoadSnapshot(path, &error);
  if (!snapshot.has_value()) return Fail(error);
  std::printf(
      "%s: ok (%d road vertices, %d road edges, %d stops, %d routes%s%s)\n",
      path.c_str(), snapshot->road.graph().num_vertices(),
      snapshot->road.graph().num_edges(), snapshot->transit.num_stops(),
      snapshot->transit.num_routes(),
      snapshot->has_precompute ? ", precompute" : "",
      snapshot->has_demand ? ", demand" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: ctbus_snapshot build|inspect|verify ... (see file header)");
  }
  const std::string command = argv[1];
  if (command == "build") {
    return RunBuild(ParseBuildArgs(argc, argv));
  }
  if (command == "inspect" || command == "verify") {
    if (argc != 3) Die(command + " takes exactly one snapshot path");
    return command == "inspect" ? RunInspect(argv[2]) : RunVerify(argv[2]);
  }
  Die("unknown command '" + command + "'");
}
