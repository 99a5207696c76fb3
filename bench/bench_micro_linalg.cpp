// Micro-benchmarks (google-benchmark) for the linear-algebra substrate:
// dense eigensolve vs Lanczos trace estimation scaling, Hutchinson probe
// count, and sparse matvec throughput. These quantify the Section 5 claim
// that estimation beats eigendecomposition by orders of magnitude.
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "connectivity/natural_connectivity.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/hutchinson.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"

namespace {

// n * avg_degree / 2 uniform draws of a stop pair; self-pairs and repeats
// of a drawn pair are dropped.
ctbus::linalg::SymmetricSparseMatrix RandomGraph(int n, double avg_degree,
                                                 std::uint64_t seed) {
  ctbus::linalg::Rng rng(seed);
  std::set<std::pair<int, int>> pairs;
  const int edges = static_cast<int>(n * avg_degree / 2.0);
  for (int i = 0; i < edges; ++i) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u != v) pairs.insert({std::min(u, v), std::max(u, v)});
  }
  std::vector<ctbus::linalg::SymmetricSparseMatrix::Triplet> entries;
  for (const auto& [u, v] : pairs) entries.push_back({u, v, 1.0});
  return ctbus::linalg::SymmetricSparseMatrix(n, entries);
}

void BM_DenseEigenvalues(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 3.0, 1);
  const auto dense = ctbus::linalg::DenseMatrix::FromSparse(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctbus::linalg::SymmetricEigenvalues(dense));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DenseEigenvalues)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_LanczosTraceEstimate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 3.0, 1);
  ctbus::connectivity::EstimatorOptions options;  // s=50, t=10
  const ctbus::connectivity::ConnectivityEstimator estimator(n, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(a));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LanczosTraceEstimate)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HutchinsonProbeSweep(benchmark::State& state) {
  const int probes = static_cast<int>(state.range(0));
  const auto a = RandomGraph(512, 3.0, 2);
  ctbus::linalg::Rng rng(3);
  const auto probe_vectors =
      ctbus::linalg::MakeGaussianProbes(512, probes, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctbus::linalg::EstimateTraceExpWithProbes(a, probe_vectors, 10));
  }
}
BENCHMARK(BM_HutchinsonProbeSweep)->Arg(10)->Arg(25)->Arg(50)->Arg(100);

void BM_LanczosStepsSweep(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  const auto a = RandomGraph(512, 3.0, 2);
  ctbus::linalg::Rng rng(4);
  std::vector<double> v(512);
  ctbus::linalg::FillGaussian(&rng, &v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctbus::linalg::LanczosExpQuadrature(a, v, steps));
  }
}
BENCHMARK(BM_LanczosStepsSweep)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_SparseMatVec(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 4.0, 5);
  ctbus::linalg::Rng rng(6);
  std::vector<double> x(n), y(n);
  ctbus::linalg::FillGaussian(&rng, &x);
  for (auto _ : state) {
    a.Apply(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_entries() * 2);
}
BENCHMARK(BM_SparseMatVec)->Arg(1024)->Arg(8192)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
