// Estimator kernel microbench: the adjacency matvec every Lanczos run
// reads, then a full trace estimate through single-lane quadrature calls
// vs the lane-blocked kernel every connectivity estimate uses. Reports
// GFLOP-equivalent throughput (2 * nnz flops per matvec) and checksums: the
// matvec's output sum, and both trace estimates, which must agree exactly —
// a drifting checksum here means the determinism contract broke (the bench
// exits 1 on a trace mismatch), not that a tolerance moved.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "gen/datasets.h"
#include "linalg/hutchinson.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"

namespace {

using ctbus::bench::Stopwatch;

double Gflops(double matvecs, double nnz, double seconds) {
  return seconds > 0.0 ? matvecs * 2.0 * nnz / seconds / 1e9 : 0.0;
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "estimator kernel (adjacency matvec; single-lane vs lane-blocked "
      "quadrature)",
      "Section 5.1: Hutchinson probes x Lanczos quadrature is the whole "
      "cost of a connectivity estimate");
  const double scale = ctbus::bench::GetScale();
  const ctbus::gen::Dataset city = ctbus::gen::MakeChicagoLike(scale);
  ctbus::bench::PrintDataset(city);
  std::printf("\n");

  ctbus::bench::BenchReport report("matvec");
  report.AddDataset(city);

  const ctbus::linalg::SymmetricSparseMatrix adjacency =
      city.transit.AdjacencyMatrix();
  const double nnz = 2.0 * static_cast<double>(adjacency.num_entries());
  const int n = adjacency.dim();

  // The precompute estimator's shape: 8 pinned probes, 8 Lanczos steps.
  // Rounds are sized off nnz so each section does a fixed amount of work
  // regardless of CTBUS_SCALE; small transit graphs get many repetitions.
  const int probes = 8;
  const int steps = 8;
  const int rounds = std::max(
      20, static_cast<int>(4e6 / std::max<double>(1.0, nnz * probes)));
  const int est_rounds = std::max(5, rounds / 32);
  ctbus::linalg::Rng rng(11);
  const auto probe_vectors =
      ctbus::linalg::MakeGaussianProbes(n, probes, &rng);

  // Raw matvec: one traversal per probe.
  {
    std::vector<double> y(n);
    double sink = 0.0;
    const Stopwatch timer;
    for (int r = 0; r < rounds; ++r) {
      for (const auto& v : probe_vectors) {
        adjacency.Apply(v, &y);
        sink += y[0];
      }
    }
    const double seconds = timer.Seconds();
    // The output of one matvec on the first probe, summed in row order:
    // a function of the adjacency's content and row layout alone.
    adjacency.Apply(probe_vectors[0], &y);
    double checksum = 0.0;
    for (double value : y) checksum += value;

    const double matvecs = static_cast<double>(rounds) * probes;
    std::printf("-- raw matvec (%d rounds x %d probes, nnz=%.0f) --\n",
                rounds, probes, nnz);
    std::printf("adjacency: %.4fs  %.3f GFLOP/s  checksum=%.17g  "
                "(sink=%.6g)\n\n",
                seconds, Gflops(matvecs, nnz, seconds), checksum, sink);
    report.AddMetric("apply_adjacency_gflops",
                     Gflops(matvecs, nnz, seconds), "higher");
    report.AddChecksum("matvec", checksum);
  }

  // Full trace estimate: single-lane kernel calls (one probe at a time)
  // vs the lane-blocked kernel (4 probes interleaved per block).
  {
    double single_sum = 0.0;
    const Stopwatch single_timer;
    for (int r = 0; r < est_rounds; ++r) {
      double acc = 0.0;
      for (const auto& v : probe_vectors) {
        acc += ctbus::linalg::LanczosExpQuadrature(adjacency, v, steps);
      }
      single_sum = acc / static_cast<double>(probes);
    }
    const double single_seconds = single_timer.Seconds();

    double blocked_sum = 0.0;
    const Stopwatch blocked_timer;
    for (int r = 0; r < est_rounds; ++r) {
      blocked_sum = ctbus::linalg::EstimateTraceExpWithProbes(
          adjacency, probe_vectors, steps);
    }
    const double blocked_seconds = blocked_timer.Seconds();

    const bool identical = single_sum == blocked_sum;
    const double speedup =
        blocked_seconds > 0.0 ? single_seconds / blocked_seconds : 0.0;
    std::printf("-- trace estimate (probes=%d, steps=%d, %d rounds) --\n",
                probes, steps, est_rounds);
    std::printf("single-lane:  %.4fs\n", single_seconds);
    std::printf("lane-blocked: %.4fs  speedup=%.2fx  bit-identical=%s\n\n",
                blocked_seconds, speedup, identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: lane-blocked trace estimate differs from the "
                   "single-lane one\n");
      return 1;
    }
    report.AddMetric("estimate_single_lane_seconds", single_seconds, "lower");
    report.AddMetric("estimate_lane_blocked_seconds", blocked_seconds,
                     "lower");
    report.AddMetric("estimate_lane_blocked_speedup", speedup, "higher");
    report.AddChecksum("trace_estimate", single_sum);
    report.AddChecksum("trace_estimate_lane_blocked", blocked_sum);
  }

  report.WriteIfRequested();
  return 0;
}
