// Serving demo: stand up a PlanningService over a preset city, fan a
// what-if parameter sweep out over the worker pool, commit the best route,
// and show snapshot versioning keeping old queries replayable.
//
//   $ ./examples/service_demo
#include <cstdio>

#include "service/planning_service.h"
#include "service/scenario_runner.h"

namespace {

const char* PlannerName(ctbus::core::Planner planner) {
  switch (planner) {
    case ctbus::core::Planner::kEta:
      return "ETA";
    case ctbus::core::Planner::kEtaPre:
      return "ETA-Pre";
    case ctbus::core::Planner::kVkTsp:
      return "vk-TSP";
  }
  return "?";
}

}  // namespace

int main() {
  // 1. A service: worker pool + precompute cache + snapshot stores.
  ctbus::service::ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.cache_capacity = 8;
  ctbus::service::PlanningService service(service_options);

  // 2. Register a city from the preset registry (any gen::DatasetNames()).
  service.RegisterPreset("midtown");
  std::printf(
      "registered 'midtown' at snapshot v%llu, %d workers on its shard\n\n",
      static_cast<unsigned long long>(service.LatestVersion("midtown")),
      service.num_threads());

  // 3. A what-if sweep: 2 route lengths x 3 demand/connectivity weights,
  //    all submitted at sweep priority against one pinned snapshot. Every
  //    cell shares the precompute key, so the whole sweep costs one
  //    precompute: the first cell misses the cache, the rest hit it.
  ctbus::service::SweepSpec spec;
  spec.dataset = "midtown";
  spec.base.k = 8;
  spec.base.seed_count = 500;
  spec.base.max_iterations = 2000;
  spec.ks = {6, 8};
  spec.ws = {0.2, 0.5, 0.8};
  ctbus::service::ScenarioRunner runner(&service);
  const auto cells = runner.Run(spec);

  std::printf("%-8s %4s %5s %10s %6s %9s %9s\n", "planner", "k", "w",
              "objective", "cache", "queue(ms)", "plan(ms)");
  const ctbus::service::SweepCell* best = nullptr;
  for (const auto& cell : cells) {
    const auto& stats = cell.result.stats;
    std::printf("%-8s %4d %5.2f %10.5f %6s %9.2f %9.2f\n",
                PlannerName(cell.planner), cell.k, cell.w,
                cell.result.plan.objective,
                stats.precompute_cache_hit ? "hit" : "miss",
                1e3 * stats.queue_seconds, 1e3 * stats.plan_seconds);
    if (cell.result.plan.found &&
        (best == nullptr ||
         cell.result.plan.objective > best->result.plan.objective)) {
      best = &cell;
    }
  }
  const auto cache = service.cache_stats();
  std::printf("\nprecompute cache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  if (best == nullptr) {
    std::printf("no feasible route found\n");
    return 0;
  }

  // 4. Commit the winning scenario: readers keep serving v1 until the new
  //    version is published. Queries pinned to v1 still replay
  //    bit-identically; latest-version queries see the new route's demand
  //    already served.
  const std::uint64_t v2 = service.Commit(best->result);
  std::printf("\ncommitted best route (k=%d, w=%.2f) -> snapshot v%llu\n",
              best->k, best->w, static_cast<unsigned long long>(v2));

  ctbus::service::PlanRequest replan = best->result.request;
  replan.snapshot_version = 0;  // latest
  const auto next = service.Plan(replan);
  std::printf("next route against v%llu: objective %.5f (%d stops)\n",
              static_cast<unsigned long long>(next.stats.snapshot_version),
              next.plan.objective,
              static_cast<int>(next.plan.path.stops().size()));
  return 0;
}
