// ctbus_snapshot: build / inspect / verify CTBS city snapshots
// (io/snapshot.h). A snapshot holds the road and transit networks, trip
// demand already aggregated, so `ctbus_server --snapshot FILE` (and any
// DatasetCatalog descriptor with a snapshot_path) skips TSV parsing,
// cross-reference validation and trip ingestion on restart. The Delta(e)
// precompute is not in a snapshot: it persists in the precompute cache's
// spill directory (`ctbus_server --spill-dir DIR`), which a restarted
// server reads on its first miss.
//
// The build subcommand uses the catalog's own loader
// (service::BuildDatasetNetworks), so a built file has passed every check
// a live registration applies (stop -> road vertex, transit edge -> road
// edges, trip -> road path).
//
//   Build (exactly one source; --trips only with files):
//     ctbus_snapshot build --out city.ctbs
//         (--preset NAME [--scale X] | --road R.tsv --transit T.tsv
//          [--trips TRIPS.csv])
//
//   Inspect — print the section table (tag, bytes, checksum, ok):
//     ctbus_snapshot inspect city.ctbs
//
//   Verify — full strict decode; exit 0 only if every byte checks out:
//     ctbus_snapshot verify city.ctbs
//
// Exit codes: 0 ok, 1 build/verify failure (a source the catalog rejects;
// a corrupt, truncated or stale-format file, checksum mismatch — the
// diagnostic names the failing section), 2 usage. CI injects a flipped
// byte and requires `verify` to exit 1.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "io/parse.h"
#include "io/snapshot.h"
#include "service/dataset_catalog.h"

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
  /// The source fields only (preset/scale or road/transit/trips).
  ctbus::service::DatasetDescriptor source;
};

int RunBuild(const BuildArgs& args) {
  std::string error;
  auto networks = ctbus::service::BuildDatasetNetworks(args.source, &error);
  if (!networks.has_value()) return Fail(error);
  ctbus::io::Snapshot snapshot;
  snapshot.road = std::move(networks->road);
  snapshot.transit = std::move(networks->transit);
  if (!ctbus::io::SaveSnapshot(snapshot, args.out, &error)) {
    return Fail(error);
  }
  std::printf(
      "ctbus_snapshot: wrote %s (%d road vertices, %d road edges, %d "
      "stops, %d routes, %lld trips ingested)\n",
      args.out.c_str(), snapshot.road.graph().num_vertices(),
      snapshot.road.graph().num_edges(), snapshot.transit.num_stops(),
      snapshot.transit.num_routes(),
      static_cast<long long>(networks->trips_ingested));
  return 0;
}

BuildArgs ParseBuildArgs(int argc, char** argv) {
  BuildArgs args;
  ctbus::service::DatasetDescriptor& source = args.source;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("flag " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--out") {
      args.out = value();
    } else if (flag == "--preset") {
      source.preset = value();
    } else if (flag == "--scale") {
      const std::string token = value();
      // The range is gen::MakeDatasetByName's, reported as a build error.
      if (!ctbus::io::ParseDouble(token, &source.preset_scale)) {
        Die("flag " + flag + ": bad value \"" + token + "\"");
      }
    } else if (flag == "--road") {
      source.road_path = value();
    } else if (flag == "--transit") {
      source.transit_path = value();
    } else if (flag == "--trips") {
      source.trips_path = value();
    } else {
      Die("unknown build flag " + flag);
    }
  }
  if (args.out.empty()) Die("build needs --out");
  // The exactly-one-source rule is the catalog's (a build failure, exit 1).
  if (!source.preset.empty() && !source.trips_path.empty()) {
    Die("--trips only applies to file sources (presets embed demand)");
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
  std::printf("%s: ok (%d road vertices, %d road edges, %d stops, %d "
              "routes)\n",
              path.c_str(), snapshot->road.graph().num_vertices(),
              snapshot->road.graph().num_edges(),
              snapshot->transit.num_stops(), snapshot->transit.num_routes());
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
