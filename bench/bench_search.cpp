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
//
// Online ETA and ETA-Pre are timed again with their local solves fanned
// out over 2 workers (CtBusOptions::precompute_threads = 2, the width the
// server gives a request at --threads 2): the *_threads2_ms rows. Online
// ETA fans out its frontier and final re-evaluation, ETA-Pre only the
// final re-evaluation. Every width-2 run must return the width-1 bits
// (the bench exits 1 if not).
//
// A precompute memoizes every staged term a search solves
// (Precompute::term_memo), so a repeated request reads its terms instead
// of solving them. Every row above plans over a fresh copy of the
// precompute (same tables, empty memo) per timed run, so it measures the
// ball solves a request runs on a cold memo. The eta_online_k*_warm rows
// time online ETA over one memo that an untimed run of the same request
// has filled: the cost of a request the server has seen before. A warm run
// must return the cold bits (the bench exits 1 if not).
#include <cstdio>
#include <functional>
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
using ctbus::core::PlanningBase;
using ctbus::core::PlanningContext;
using ctbus::core::Precompute;
using ctbus::core::PlanResult;

constexpr int kRuns = 9;
constexpr int kKs[] = {4, 8, 12};

struct SearchCase {
  Planner planner;
  const char* name;
  int max_iterations;
  /// Also timed at precompute_threads = 2.
  bool timed_at_width2;
};

constexpr SearchCase kSearches[] = {
    {Planner::kEtaPre, "eta_pre", 500, true},
    {Planner::kVkTsp, "vk_tsp", 500, false},
    {Planner::kEta, "eta_online", 2, true},
};

// Every field a checksum or the response reads, compared bit for bit.
bool SameResult(const PlanResult& a, const PlanResult& b) {
  return a.objective == b.objective &&
         a.connectivity_increment == b.connectivity_increment &&
         a.iterations == b.iterations && a.seeds_pushed == b.seeds_pushed &&
         a.local_solves == b.local_solves && a.path.edges() == b.path.edges();
}

// Runs `planner` kRuns times, each over a context from `make_context`
// (built before the stopwatch starts), timing each run, into `ms`. With
// first_is_reference, every run is compared with `*first`; without,
// `*first` receives the first run and the others are compared with it.
// Returns false if any run differs.
bool TimeRuns(const std::function<PlanningContext()>& make_context,
              Planner planner, PlanResult* first, bool first_is_reference,
              std::vector<double>* ms) {
  bool identical = true;
  for (int run = 0; run < kRuns; ++run) {
    const PlanningContext context = make_context();
    Stopwatch watch;
    PlanResult result = ctbus::core::RunPlanner(&context, planner);
    ms->push_back(watch.Seconds() * 1e3);
    if (run == 0 && !first_is_reference) {
      *first = std::move(result);
    } else if (!SameResult(result, *first)) {
      identical = false;
    }
  }
  return identical;
}

void AddTimes(ctbus::bench::BenchReport* report, const std::string& key,
              const std::vector<double>& ms) {
  report->AddMetric(key + "_ms", Quantile(ms, 0.5), "lower");
  report->AddMetric(key + "_ms_p25", Quantile(ms, 0.25), "lower");
  report->AddMetric(key + "_ms_p75", Quantile(ms, 0.75), "lower");
}

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
      std::make_shared<const Precompute>(
          PlanningContext::RunPrecompute(city.road, city.transit,
                                         SearchOptions(4, 500)));
  const auto base = PlanningBase::Build(city.road, city.transit, precompute);
  // A context over a copy of the precompute: its tables, an empty memo.
  const auto cold_context = [&](const CtBusOptions& options) {
    return [&city, &precompute, options] {
      return PlanningContext::Build(
          PlanningBase::Build(city.road, city.transit,
                              std::make_shared<const Precompute>(*precompute)),
          options);
    };
  };
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
  bool width_identical = true;
  bool warm_identical = true;
  for (const SearchCase& sc : kSearches) {
    for (const int k : kKs) {
      CtBusOptions options = SearchOptions(k, sc.max_iterations);
      std::vector<double> ms;
      PlanResult first;
      identical &= TimeRuns(cold_context(options), sc.planner, &first,
                            /*first_is_reference=*/false, &ms);
      const std::string key = std::string(sc.name) + "_k" + std::to_string(k);
      std::printf("%-10s %3d %10.2f %10.2f %10.2f %6d %6d %6d %22.17g\n",
                  sc.name, k, Quantile(ms, 0.25), Quantile(ms, 0.5),
                  Quantile(ms, 0.75), first.iterations, first.seeds_pushed,
                  first.local_solves, first.objective);
      AddTimes(&report, key, ms);
      report.AddChecksum(key + "_objective", first.objective);
      report.AddChecksum(key + "_iterations", first.iterations);
      report.AddChecksum(key + "_seeds_pushed", first.seeds_pushed);
      report.AddChecksum(key + "_local_solves", first.local_solves);

      if (sc.planner == Planner::kEta) {
        // One memo, filled by an untimed run of the same request.
        const PlanningContext warm = cold_context(options)();
        ctbus::core::RunPlanner(&warm, sc.planner);
        std::vector<double> warm_ms;
        warm_identical &= TimeRuns([&warm] { return warm; }, sc.planner,
                                   &first, /*first_is_reference=*/true,
                                   &warm_ms);
        const int hits = ctbus::core::RunPlanner(&warm, sc.planner).memo_hits;
        std::printf("%-10s %3d %10.2f %10.2f %10.2f  (warm memo: %d of %d "
                    "terms read)\n",
                    sc.name, k, Quantile(warm_ms, 0.25),
                    Quantile(warm_ms, 0.5), Quantile(warm_ms, 0.75), hits,
                    first.local_solves);
        AddTimes(&report, key + "_warm", warm_ms);
      }
      if (!sc.timed_at_width2) continue;

      options.precompute_threads = 2;
      std::vector<double> ms2;
      width_identical &= TimeRuns(cold_context(options), sc.planner, &first,
                                  /*first_is_reference=*/true, &ms2);
      std::printf("%-10s %3d %10.2f %10.2f %10.2f  (2 workers)\n", sc.name, k,
                  Quantile(ms2, 0.25), Quantile(ms2, 0.5),
                  Quantile(ms2, 0.75));
      AddTimes(&report, key + "_threads2", ms2);
    }
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: repeated searches over one context returned "
                 "different results\n");
    return 1;
  }
  if (!warm_identical) {
    std::fprintf(stderr,
                 "FATAL: a search over a warm term memo returned different "
                 "bits than over a cold one\n");
    return 1;
  }
  if (!width_identical) {
    std::fprintf(stderr,
                 "FATAL: a search at precompute_threads = 2 returned "
                 "different bits than at 1\n");
    return 1;
  }
  report.WriteIfRequested();
  return 0;
}
