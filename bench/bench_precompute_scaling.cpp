// Precompute engine scaling: (1) multi-thread speedup of the Delta(e) loop
// inside one RunPrecompute (Table 4's dominant "Connectivity" column), with
// bit-identity checks against the serial run; (2) warm-start derivation
// across a snapshot commit (DerivePrecompute) versus a from-scratch
// RunPrecompute, reporting the fraction of candidates recomputed and the
// agreement with from-scratch.
//
// universe_seconds is the median EdgeUniverse::Build time (bounded Dijkstra
// plus spatial-grid queries) over the thread sweep.
//
// Invariants: every line reads bit-identical=yes (trace increments, tr_0
// and Delta(e) all equal the serial / from-scratch run); CI fails on any
// "bit-identical=no". Delta(e) speedup > 1 needs >= 2 cores.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "linalg/parallel_for.h"
#include "service/snapshot_store.h"

namespace {

using ctbus::bench::Stopwatch;

double Checksum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

bool BitIdentical(const ctbus::core::Precompute& a,
                  const ctbus::core::Precompute& b) {
  return a.trace_increments == b.trace_increments &&
         a.base_trace == b.base_trace && a.increments == b.increments;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

void ThreadScalingSection(const ctbus::gen::Dataset& city,
                          ctbus::core::CtBusOptions options,
                          ctbus::bench::BenchReport* report) {
  std::printf("-- thread scaling --\n");
  const int hw = ctbus::linalg::ResolveThreadCount(0);
  std::vector<int> thread_counts = {1, 2, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }
  double serial_seconds = 0.0;
  ctbus::core::Precompute serial;
  std::vector<double> universe_seconds;
  for (int threads : thread_counts) {
    options.precompute_threads = threads;
    const Stopwatch timer;
    const ctbus::core::Precompute pre =
        ctbus::core::PlanningContext::RunPrecompute(city.road, city.transit,
                                                    options);
    const double total = timer.Seconds();
    universe_seconds.push_back(pre.stats.universe_seconds);
    if (threads == 1) {
      serial_seconds = pre.stats.increments_seconds;
      serial = pre;
    }
    const bool identical = BitIdentical(pre, serial);
    std::printf(
        "threads=%-2d  universe=%.3fs  delta(e)=%.3fs  total=%.3fs  "
        "speedup(delta)=%.2fx  checksum=%.9f  bit-identical=%s\n",
        threads, pre.stats.universe_seconds, pre.stats.increments_seconds,
        total,
        pre.stats.increments_seconds > 0.0
            ? serial_seconds / pre.stats.increments_seconds
            : 0.0,
        Checksum(pre.increments), identical ? "yes" : "no");
    report->AddMetric("delta_seconds_threads_" + std::to_string(threads),
                      pre.stats.increments_seconds, "lower");
    if (threads == 1) {
      report->AddChecksum("increments", Checksum(pre.increments));
    }
  }
  // EdgeUniverse::Build is serial: each thread count is one more sample.
  report->AddMetric("universe_seconds",
                    ctbus::bench::Quantile(universe_seconds, 0.5), "lower");
  if (hw < 2) {
    std::printf("note: host has %d core(s); >= 2 cores are needed to "
                "demonstrate parallel speedup\n",
                hw);
  }
  std::printf("\n");
}

void WarmStartSection(ctbus::gen::Dataset city,
                      ctbus::core::CtBusOptions options,
                      ctbus::bench::BenchReport* report) {
  std::printf("-- warm start across a commit --\n");
  options.precompute_threads = 0;  // hardware concurrency
  ctbus::service::SnapshotStore store(std::move(city.road),
                                      std::move(city.transit));
  const ctbus::service::SnapshotPtr v1 = store.Get(1);
  const auto pre1 = std::make_shared<const ctbus::core::Precompute>(
      ctbus::core::PlanningContext::RunPrecompute(*v1->road, *v1->transit,
                                                  options));

  // One small commit: plan a route with ETA-Pre and publish it.
  const ctbus::core::PlanningContext context =
      ctbus::core::PlanningContext::BuildWithPrecompute(*v1->road, *v1->transit,
                                                        options, pre1);
  const ctbus::core::PlanResult plan =
      ctbus::core::RunEta(&context, ctbus::core::SearchMode::kPrecomputed);
  if (!plan.found) {
    std::printf("no plannable route on this dataset; skipping\n\n");
    return;
  }
  const std::uint64_t v2_version =
      store.CommitRoute(plan, pre1->universe, /*base_version=*/1);
  const ctbus::service::SnapshotPtr v2 = store.Get(v2_version);
  const auto delta = store.DeltaBetween(1, v2_version);
  std::printf("commit: %zu edges planned, %zu pairs activated, "
              "%zu stops touched\n",
              plan.path.edges().size(), delta->added_stop_pairs.size(),
              delta->touched_stops.size());

  const Stopwatch scratch_timer;
  const ctbus::core::Precompute scratch =
      ctbus::core::PlanningContext::RunPrecompute(*v2->road, *v2->transit,
                                                  options);
  const double scratch_seconds = scratch_timer.Seconds();

  const Stopwatch derived_timer;
  const ctbus::core::Precompute derived =
      ctbus::core::PlanningContext::DerivePrecompute(*v2->road, *v2->transit,
                                                     options, *pre1, *delta);
  const double derived_seconds = derived_timer.Seconds();

  const double recompute_fraction =
      scratch.universe.num_new_edges() > 0
          ? static_cast<double>(derived.stats.num_increments_recomputed) /
                scratch.universe.num_new_edges()
          : 0.0;
  std::printf("from-scratch: %.3fs (universe %.3fs + delta(e) %.3fs)\n",
              scratch_seconds, scratch.stats.universe_seconds,
              scratch.stats.increments_seconds);
  std::printf("derived:      %.3fs (universe %.3fs + delta(e) %.3fs)  "
              "speedup=%.2fx\n",
              derived_seconds, derived.stats.universe_seconds,
              derived.stats.increments_seconds,
              derived_seconds > 0.0 ? scratch_seconds / derived_seconds : 0.0);
  std::printf("candidates: %d   recomputed: %d (%.1f%%)   carried: %d\n",
              scratch.universe.num_new_edges(),
              derived.stats.num_increments_recomputed,
              100.0 * recompute_fraction,
              derived.stats.num_increments_carried);
  const bool identical = BitIdentical(derived, scratch);
  std::printf("derived vs from-scratch: bit-identical=%s  max|diff|=%.3e  "
              "max increment=%.3e\n\n",
              identical ? "yes" : "no",
              MaxAbsDiff(derived.increments, scratch.increments),
              *std::max_element(scratch.increments.begin(),
                                scratch.increments.end()));
  report->AddMetric("warm_start_scratch_seconds", scratch_seconds, "lower");
  report->AddMetric("warm_start_derived_seconds", derived_seconds, "lower");
  report->AddMetric("warm_start_recompute_fraction", recompute_fraction,
                    "lower");
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "precompute scaling (parallel + warm start)",
      "Table 4: the Delta(e) pre-computation dominates planning cost");
  const double scale = ctbus::bench::GetScale();
  ctbus::bench::BenchReport report("precompute_scaling");

  {
    const ctbus::gen::Dataset city = ctbus::gen::MakeChicagoLike(scale);
    ctbus::bench::PrintDataset(city);
    report.AddDataset(city);
    std::printf("\n");

    ThreadScalingSection(city, ctbus::bench::BenchOptions(), &report);
  }
  WarmStartSection(ctbus::gen::MakeChicagoLike(scale),
                   ctbus::bench::BenchOptions(), &report);
  report.WriteIfRequested();
  return 0;
}
