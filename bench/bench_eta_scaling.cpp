// Online ETA frontier-expansion scaling: per-query latency of
// SearchMode::kOnline versus CtBusOptions::eta_threads, with bit-identity
// checks against the serial run. The frontier's per-neighbor local trace
// increments (Algorithm 1 lines 7-16) dominate an online query, so this is
// the knob that makes interactive what-if latency track core count the way
// bench_precompute_scaling shows for the Table-4 loop.
//
// Acceptance targets (ISSUE 4): every thread count reports the same plan,
// objective, and trace as eta_threads=1 (exact double equality); speedup
// > 1 whenever the host has >= 2 cores (the 1-CPU-container caveat is
// printed, as in bench_precompute_scaling).
//
// Environment knobs: CTBUS_SCALE, CTBUS_ETA_ITERS (see bench_util.h) and
// CTBUS_BENCH_THREADS, a comma list of thread counts ("1,2,4,hw" default).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/eta.h"
#include "core/parallel_for.h"
#include "core/planning_context.h"
#include "gen/datasets.h"

namespace {

using ctbus::bench::Stopwatch;

std::vector<int> ThreadCounts() {
  const std::string spec =
      ctbus::bench::GetEnvString("CTBUS_BENCH_THREADS", "1,2,4,hw");
  std::vector<int> counts;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string token =
        spec.substr(begin, comma == std::string::npos ? spec.size() - begin
                                                      : comma - begin);
    if (token == "hw") {
      counts.push_back(ctbus::core::ResolveThreadCount(0));
    } else if (!token.empty()) {
      counts.push_back(std::max(1, std::atoi(token.c_str())));
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (counts.empty() || counts.front() != 1) {
    counts.insert(counts.begin(), 1);  // the serial reference always runs
  }
  return counts;
}

bool SamePlan(const ctbus::core::PlanResult& a,
              const ctbus::core::PlanResult& b) {
  return a.found == b.found && a.path.edges() == b.path.edges() &&
         a.objective == b.objective && a.demand == b.demand &&
         a.connectivity_increment == b.connectivity_increment &&
         a.iterations == b.iterations && a.trace == b.trace;
}

void EtaScalingSection(const ctbus::gen::Dataset& city,
                       ctbus::core::CtBusOptions options, const char* label,
                       const char* key,
                       ctbus::bench::BenchReport* report) {
  std::printf("-- online ETA frontier scaling (%s) --\n", label);
  options.max_iterations = ctbus::bench::GetEtaIterations();
  const ctbus::bench::ContextFactory factory(city, options);

  ctbus::core::PlanResult serial;
  double serial_seconds = 0.0;
  for (int threads : ThreadCounts()) {
    options.eta_threads = threads;
    const ctbus::core::PlanningContext ctx = factory.Make(options);
    const Stopwatch timer;
    const ctbus::core::PlanResult result =
        ctbus::core::RunEta(&ctx, ctbus::core::SearchMode::kOnline);
    const double seconds = timer.Seconds();
    if (threads == 1) {
      serial = result;
      serial_seconds = seconds;
    }
    std::printf(
        "eta_threads=%-2d  query=%.3fs  speedup=%.2fx  iterations=%-4d  "
        "objective=%.9f  edges=%zu  bit-identical=%s\n",
        threads, seconds, seconds > 0.0 ? serial_seconds / seconds : 0.0,
        result.iterations, result.objective, result.path.edges().size(),
        SamePlan(result, serial) ? "yes" : "NO");
    report->AddMetric(std::string(key) + "_query_seconds_threads_" +
                          std::to_string(threads),
                      seconds, "lower");
    if (threads == 1) {
      report->AddChecksum(std::string(key) + "_objective", result.objective);
    }
  }
  const int hw = ctbus::core::ResolveThreadCount(0);
  if (hw < 2) {
    std::printf("note: host has %d core(s); >= 2 cores are needed to "
                "demonstrate parallel speedup\n",
                hw);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "online ETA frontier scaling (eta_threads)",
      "Table 7 / Figure 9: per-neighbor connectivity terms dominate online "
      "ETA query time");
  const double scale = ctbus::bench::GetScale();
  const ctbus::gen::Dataset city = ctbus::gen::MakeChicagoLike(scale);
  ctbus::bench::PrintDataset(city);
  std::printf("\n");
  ctbus::bench::BenchReport report("eta_scaling");
  report.AddDataset(city);

  ctbus::core::CtBusOptions best_neighbor = ctbus::bench::BenchOptions();
  best_neighbor.trace_every = 10;
  EtaScalingSection(city, best_neighbor, "best-neighbor expansion",
                    "best_neighbor", &report);

  ctbus::core::CtBusOptions all_neighbors = ctbus::bench::BenchOptions();
  all_neighbors.best_neighbor_only = false;
  all_neighbors.trace_every = 10;
  EtaScalingSection(city, all_neighbors, "ETA-AN expansion", "eta_an",
                    &report);
  report.WriteIfRequested();
  return 0;
}
