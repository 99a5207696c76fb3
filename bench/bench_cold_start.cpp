// Cold-start trajectory: text-parse + RunPrecompute vs what a restarted
// `ctbus_server --snapshot F --spill-dir D` reads — the checksummed city
// snapshot for the networks (io::LoadSnapshot) and the precompute cache's
// spill entry for Delta(e) (PrecomputeCache's disk hit: the entry load plus
// its io::NetworkFingerprint match) — on the chicago preset and the
// committed grid fixture. The bench is also a correctness gate, not just a
// stopwatch: the loaded precompute must be bit-identical to the computed
// one, the loaded objects must produce bit-identical planner results
// (route edges, stops, objectives, ResponseChecksum) for all three
// planners, and the chicago binary restart must be >= 10x faster than the
// text cold start — any failure exits 1.
//
// Emits BENCH_cold_start.json (ctbus-bench-v1) when CTBUS_BENCH_JSON_DIR
// is set; tools/bench_diff.py tracks the speedup across commits.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/planner.h"
#include "io/network_io.h"
#include "io/snapshot.h"
#include "net/frame.h"
#include "service/planning_service.h"
#include "service/precompute_cache.h"

namespace {

using ctbus::core::PlanResult;
using ctbus::core::Planner;

struct PlannerCase {
  Planner planner;
  const char* name;
};

constexpr PlannerCase kPlanners[] = {
    {Planner::kEta, "eta"},
    {Planner::kEtaPre, "eta_pre"},
    {Planner::kVkTsp, "vk_tsp"},
};

/// The full wire-visible identity of a plan: net::ResponseChecksum over
/// the deterministic response section (found, version, edges, stops,
/// objective, demand, connectivity increment, iterations).
std::uint64_t PlanChecksum(const std::string& dataset,
                           const ctbus::core::CtBusOptions& options,
                           const PlanResult& plan) {
  ctbus::service::ServiceResult result;
  result.plan = plan;
  result.request.dataset = dataset;
  result.request.options = options;
  result.stats.snapshot_version = 1;
  return ctbus::net::ResponseChecksum(ctbus::net::MakeOkResponse(1, result));
}

/// One dataset's cold-start trial. Returns the binary-vs-text speedup, or
/// exits 1 if any planner result differs between the two load paths.
double RunTrial(const std::string& name,
                const ctbus::graph::RoadNetwork& source_road,
                const ctbus::graph::TransitNetwork& source_transit,
                const ctbus::core::CtBusOptions& options,
                ctbus::bench::BenchReport* report) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ctbus-bench-cold-start";
  fs::create_directories(dir);
  const std::string road_path = (dir / (name + "_road.tsv")).string();
  const std::string transit_path = (dir / (name + "_transit.tsv")).string();
  const std::string snapshot_path = (dir / (name + ".ctbs")).string();

  if (!ctbus::io::SaveRoadNetwork(source_road, road_path) ||
      !ctbus::io::SaveTransitNetwork(source_transit, transit_path)) {
    std::fprintf(stderr, "cold_start: cannot stage %s text files\n",
                 name.c_str());
    std::exit(1);
  }

  // Text cold start: parse both record files, run the full precompute.
  ctbus::bench::Stopwatch text_watch;
  auto text_road = ctbus::io::LoadRoadNetwork(road_path);
  auto text_transit = ctbus::io::LoadTransitNetwork(transit_path);
  if (!text_road.has_value() || !text_transit.has_value()) {
    std::fprintf(stderr, "cold_start: staged %s text files failed to load\n",
                 name.c_str());
    std::exit(1);
  }
  ctbus::core::Precompute text_precompute =
      ctbus::core::PlanningContext::RunPrecompute(*text_road, *text_transit,
                                                  options);
  const double text_seconds = text_watch.Seconds();

  // Stage what a server leaves behind (not timed — the build happens
  // once): the city snapshot, and the spill entry a cache over the
  // networks writes when it is destroyed.
  const std::string spill_dir = (dir / (name + "_spill")).string();
  fs::remove_all(spill_dir);
  const ctbus::service::PrecomputeKey key =
      ctbus::service::MakePrecomputeKey(name, /*snapshot_version=*/1,
                                        options);
  {
    ctbus::io::Snapshot snapshot;
    snapshot.road = *text_road;
    snapshot.transit = *text_transit;
    std::string error;
    if (!ctbus::io::SaveSnapshot(snapshot, snapshot_path, &error)) {
      std::fprintf(stderr, "cold_start: %s\n", error.c_str());
      std::exit(1);
    }
    const std::uint64_t fingerprint =
        ctbus::io::NetworkFingerprint(*text_road, *text_transit);
    ctbus::service::PrecomputeCache cache(/*capacity=*/1, /*max_bytes=*/0,
                                          spill_dir);
    cache.GetOrCompute(
        key, [&] { return text_precompute; }, nullptr,
        [fingerprint] { return fingerprint; });
  }

  // The binary restart: load the networks, then answer the first miss
  // from the spill entry. A compute here means the spill was not used.
  ctbus::service::PrecomputeCache cache(/*capacity=*/1, /*max_bytes=*/0,
                                        spill_dir);
  ctbus::bench::Stopwatch binary_watch;
  std::string error;
  auto loaded = ctbus::io::LoadSnapshot(snapshot_path, &error);
  ctbus::service::PrecomputeCache::PrecomputePtr loaded_precompute;
  if (loaded.has_value()) {
    loaded_precompute = cache.GetOrCompute(
        key,
        []() -> ctbus::core::Precompute {
          std::fprintf(stderr, "cold_start: spill entry was not loaded\n");
          std::exit(1);
        },
        nullptr,
        [&loaded] {
          return ctbus::io::NetworkFingerprint(loaded->road, loaded->transit);
        });
  }
  const double binary_seconds = binary_watch.Seconds();
  if (!loaded.has_value()) {
    std::fprintf(stderr, "cold_start: snapshot load failed: %s\n",
                 error.c_str());
    std::exit(1);
  }

  // Gate 1: the loaded precompute is bit-identical to the computed one.
  std::vector<std::uint8_t> text_bytes;
  std::vector<std::uint8_t> loaded_bytes;
  ctbus::io::EncodePrecompute(text_precompute, &text_bytes);
  ctbus::io::EncodePrecompute(*loaded_precompute, &loaded_bytes);
  if (text_bytes != loaded_bytes) {
    std::fprintf(stderr,
                 "cold_start: %s loaded precompute differs from computed\n",
                 name.c_str());
    std::exit(1);
  }

  // Gate 2: all three planners produce bit-identical results over the
  // loaded objects — same route edges, stops, objective, checksum.
  const auto text_context = ctbus::core::PlanningContext::BuildWithPrecompute(
      *text_road, *text_transit, options, text_precompute);
  const auto loaded_context =
      ctbus::core::PlanningContext::BuildWithPrecompute(
          loaded->road, loaded->transit, options, *loaded_precompute);
  for (const PlannerCase& pc : kPlanners) {
    const PlanResult text_plan =
        ctbus::core::RunPlanner(&text_context, pc.planner);
    const PlanResult loaded_plan =
        ctbus::core::RunPlanner(&loaded_context, pc.planner);
    const std::uint64_t text_checksum =
        PlanChecksum(name, options, text_plan);
    const std::uint64_t loaded_checksum =
        PlanChecksum(name, options, loaded_plan);
    if (text_plan.found != loaded_plan.found ||
        text_plan.path.edges() != loaded_plan.path.edges() ||
        text_plan.path.stops() != loaded_plan.path.stops() ||
        text_checksum != loaded_checksum) {
      std::fprintf(stderr,
                   "cold_start: %s planner %s diverged between text and "
                   "binary loads (checksums %016llx vs %016llx)\n",
                   name.c_str(), pc.name,
                   static_cast<unsigned long long>(text_checksum),
                   static_cast<unsigned long long>(loaded_checksum));
      std::exit(1);
    }
    report->AddChecksum(name + "_" + pc.name + "_objective",
                        text_plan.objective);
  }

  const double speedup =
      binary_seconds > 0.0 ? text_seconds / binary_seconds : 0.0;
  std::printf(
      "%-10s text %8.2f ms   binary %8.3f ms   speedup %7.1fx   "
      "(%d stops, %d universe edges)\n",
      name.c_str(), text_seconds * 1e3, binary_seconds * 1e3, speedup,
      loaded->transit.num_stops(), loaded_precompute->universe.num_edges());
  report->AddMetric(name + "_text_cold_ms", text_seconds * 1e3, "lower");
  report->AddMetric(name + "_binary_cold_ms", binary_seconds * 1e3, "lower");
  report->AddMetric(name + "_speedup", speedup, "higher");
  return speedup;
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "Cold start: text parse + precompute vs snapshot + spill load",
      "restart-to-first-query without a single Dijkstra or Lanczos call");
  ctbus::bench::BenchReport report("cold_start");

  // Chicago preset at the ambient scale — the acceptance gate dataset.
  const ctbus::gen::Dataset chicago =
      ctbus::gen::MakeChicagoLike(ctbus::bench::GetScale());
  ctbus::bench::PrintDataset(chicago);
  report.AddDataset(chicago);
  ctbus::core::CtBusOptions chicago_options = ctbus::bench::BenchOptions();
  const double chicago_speedup = RunTrial(
      "chicago", chicago.road, chicago.transit, chicago_options, &report);

  // The committed 5x5 grid fixture (stops 800 m apart; tau = 900).
  const std::string data_dir =
      ctbus::bench::GetEnvString("CTBUS_FIXTURE_DIR", "tests/data");
  auto grid_road = ctbus::io::LoadRoadNetwork(data_dir + "/grid_road.tsv");
  auto grid_transit =
      ctbus::io::LoadTransitNetwork(data_dir + "/grid_transit.tsv");
  if (!grid_road.has_value() || !grid_transit.has_value()) {
    std::fprintf(stderr,
                 "cold_start: grid fixture not found under %s (set "
                 "CTBUS_FIXTURE_DIR)\n",
                 data_dir.c_str());
    return 1;
  }
  ctbus::core::CtBusOptions grid_options = ctbus::bench::BenchOptions();
  grid_options.tau = 900.0;
  grid_options.seed_count = 100;
  grid_options.max_iterations = 500;
  RunTrial("grid", *grid_road, *grid_transit, grid_options, &report);

  // The acceptance gate: the binary restart must beat the text cold start by
  // >= 10x on chicago.
  if (chicago_speedup < 10.0) {
    std::fprintf(stderr,
                 "cold_start: chicago speedup %.1fx is below the 10x gate\n",
                 chicago_speedup);
    return 1;
  }
  std::printf("\ncold-start gate: chicago binary restart %.1fx faster than "
              "text+precompute (>= 10x required)\n",
              chicago_speedup);
  report.WriteIfRequested();
  return 0;
}
