// Per-request search time of the three planners a request can name:
// ETA-Pre and VK-TSP at it_max 500, and online ETA at it_max 2 (its time
// is local ball solves; its Lemma 4 bound reads the base's spectral radius
// cap, so two iterations already show its cost). Every run plans over one
// shared PlanningBase on ChicagoLike at CTBUS_SCALE, with perfbench's
// estimator shapes (online 50x10, precompute 5x5) and the paper's
// sn = 5000, at k = 4 / 8 / 12 and w = 0.5. The per-request context,
// PlanningContext::Build(base, options) (the options and the normalization
// constants), is timed as its own context_k* row; a search's time excludes
// it but includes the L_e the search builds, and VK-TSP's the sibling
// context it builds.
//
// Each time is the median of kRuns calls, reported with its quartiles.
// The objective, the iteration count, the number of seeds pushed and the
// number of local trace increment solves of every (planner, k) are
// checksums: every run must return the same bits (the bench exits 1 if
// not), and tools/bench_diff.py compares them exactly against
// bench/baselines/BENCH_search.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/planner.h"
#include "core/planning_context.h"
#include "gen/datasets.h"

namespace {

using ctbus::bench::Quantile;
using ctbus::bench::Stopwatch;
using ctbus::core::CtBusOptions;
using ctbus::core::Planner;
using ctbus::core::PlanningContext;
using ctbus::core::PlanResult;

constexpr int kRuns = 9;
constexpr int kKs[] = {4, 8, 12};

struct SearchCase {
  Planner planner;
  const char* name;
  int max_iterations;
};

constexpr SearchCase kSearches[] = {
    {Planner::kEtaPre, "eta_pre", 500},
    {Planner::kVkTsp, "vk_tsp", 500},
    {Planner::kEta, "eta_online", 2},
};

CtBusOptions SearchOptions(int k, int max_iterations) {
  CtBusOptions options;
  options.k = k;
  options.w = 0.5;
  options.seed_count = 5000;
  options.max_iterations = max_iterations;
  options.online_estimator = {/*probes=*/50, /*lanczos_steps=*/10,
                              /*seed=*/1};
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/11};
  return options;
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "Search time per request (ETA-Pre, VK-TSP, online ETA)",
      "Table 7: ETA-Pre's search time grows mildly with k once Delta(e) "
      "is precomputed");
  const ctbus::gen::Dataset city =
      ctbus::gen::MakeChicagoLike(ctbus::bench::GetScale());
  ctbus::bench::PrintDataset(city);
  ctbus::bench::BenchReport report("search");
  report.AddDataset(city);

  const auto precompute =
      std::make_shared<const ctbus::core::Precompute>(
          PlanningContext::RunPrecompute(city.road, city.transit,
                                         SearchOptions(4, 500)));
  const auto base = ctbus::core::PlanningBase::Build(city.road, city.transit,
                                                     precompute);
  std::printf("\n%-10s %3s %10s %10s %10s\n", "context", "k", "p25 ms",
              "median ms", "p75 ms");
  for (const int k : kKs) {
    std::vector<double> ms;
    for (int run = 0; run < kRuns; ++run) {
      Stopwatch watch;
      const PlanningContext context =
          PlanningContext::Build(base, SearchOptions(k, 500));
      ms.push_back(watch.Seconds() * 1e3);
    }
    const std::string key = "context_k" + std::to_string(k);
    std::printf("%-10s %3d %10.4f %10.4f %10.4f\n", "build", k,
                Quantile(ms, 0.25), Quantile(ms, 0.5), Quantile(ms, 0.75));
    report.AddMetric(key + "_ms", Quantile(ms, 0.5), "lower");
    report.AddMetric(key + "_ms_p25", Quantile(ms, 0.25), "lower");
    report.AddMetric(key + "_ms_p75", Quantile(ms, 0.75), "lower");
  }

  std::printf("\n%-10s %3s %10s %10s %10s %6s %6s %6s %22s\n", "search",
              "k", "p25 ms", "median ms", "p75 ms", "iters", "seeds",
              "solves", "objective");

  bool identical = true;
  for (const SearchCase& sc : kSearches) {
    for (const int k : kKs) {
      const PlanningContext context =
          PlanningContext::Build(base, SearchOptions(k, sc.max_iterations));
      std::vector<double> ms;
      PlanResult first;
      for (int run = 0; run < kRuns; ++run) {
        Stopwatch watch;
        PlanResult result = ctbus::core::RunPlanner(&context, sc.planner);
        ms.push_back(watch.Seconds() * 1e3);
        if (run == 0) {
          first = std::move(result);
        } else if (result.objective != first.objective ||
                   result.iterations != first.iterations ||
                   result.seeds_pushed != first.seeds_pushed ||
                   result.local_solves != first.local_solves ||
                   result.path.edges() != first.path.edges()) {
          identical = false;
        }
      }
      const std::string key = std::string(sc.name) + "_k" + std::to_string(k);
      const double median = Quantile(ms, 0.5);
      std::printf("%-10s %3d %10.2f %10.2f %10.2f %6d %6d %6d %22.17g\n",
                  sc.name, k, Quantile(ms, 0.25), median, Quantile(ms, 0.75),
                  first.iterations, first.seeds_pushed, first.local_solves,
                  first.objective);
      report.AddMetric(key + "_ms", median, "lower");
      report.AddMetric(key + "_ms_p25", Quantile(ms, 0.25), "lower");
      report.AddMetric(key + "_ms_p75", Quantile(ms, 0.75), "lower");
      report.AddChecksum(key + "_objective", first.objective);
      report.AddChecksum(key + "_iterations", first.iterations);
      report.AddChecksum(key + "_seeds_pushed", first.seeds_pushed);
      report.AddChecksum(key + "_local_solves", first.local_solves);
    }
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: repeated searches over one context returned "
                 "different results\n");
    return 1;
  }
  report.WriteIfRequested();
  return 0;
}
