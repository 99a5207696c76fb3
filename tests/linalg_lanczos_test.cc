#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/csr_matrix.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "tests/matrix_builders.h"

namespace ctbus::linalg {
namespace {

using testutil::FromPairs;
using testutil::RandomGraph;

// exp(A) v via the dense eigendecomposition (ground truth).
std::vector<double> DenseExpApply(const SymmetricSparseMatrix& a,
                                  const std::vector<double>& v) {
  const DenseMatrix dense = DenseMatrix::FromSparse(a);
  const auto eig = SymmetricEigen(dense, /*compute_vectors=*/true);
  const int n = a.dim();
  std::vector<double> out(n, 0.0);
  for (int j = 0; j < n; ++j) {
    const auto col = eig.eigenvectors.Column(j);
    const double coef = std::exp(eig.eigenvalues[j]) * Dot(col, v);
    Axpy(coef, col, &out);
  }
  return out;
}

double DenseTraceExp(const SymmetricSparseMatrix& a) {
  const auto values = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  double acc = 0.0;
  for (double w : values) acc += std::exp(w);
  return acc;
}

TEST(LanczosTest, TridiagonalizeRecoversSpectrumOfSmallMatrix) {
  // On an n-dimensional space, n full-reorthogonalized steps give T with
  // exactly A's spectrum.
  Rng rng(5);
  // Cycle C6: eigenvalues 2cos(2 pi k / 6).
  const SymmetricSparseMatrix a =
      FromPairs(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  std::vector<double> v0(6);
  FillGaussian(&rng, &v0);
  LanczosOptions options;
  options.steps = 6;
  options.full_reorthogonalize = true;
  const auto lanczos = LanczosTridiagonalize(a, v0, options);
  const auto tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/false);
  const auto exact = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  // C6 has repeated eigenvalues; Lanczos from one vector finds each distinct
  // eigenvalue. Verify every Ritz value is an exact eigenvalue.
  for (double ritz : tri.eigenvalues) {
    double best = 1e9;
    for (double ev : exact) best = std::min(best, std::abs(ritz - ev));
    EXPECT_LT(best, 1e-8);
  }
}

TEST(LanczosTest, BasisIsOrthonormal) {
  Rng rng(8);
  const auto a = RandomGraph(60, 4.0, &rng);
  std::vector<double> v0(60);
  FillGaussian(&rng, &v0);
  LanczosOptions options;
  options.steps = 20;
  options.full_reorthogonalize = true;
  const auto lanczos = LanczosTridiagonalize(a, v0, options);
  for (std::size_t i = 0; i < lanczos.basis.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double d = Dot(lanczos.basis[i], lanczos.basis[j]);
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(LanczosTest, ZeroStartVectorBreaksDownGracefully) {
  const SymmetricSparseMatrix a = FromPairs(4, {{0, 1}});
  const std::vector<double> v0(4, 0.0);
  LanczosOptions options;
  options.steps = 3;
  const auto lanczos = LanczosTridiagonalize(a, v0, options);
  EXPECT_TRUE(lanczos.broke_down);
  ASSERT_EQ(lanczos.alpha.size(), 1u);
  EXPECT_DOUBLE_EQ(lanczos.alpha[0], 0.0);
}

TEST(LanczosTest, QuadratureMatchesExplicitForm) {
  Rng rng(23);
  const auto a = RandomGraph(40, 4.0, &rng);
  std::vector<double> v(40);
  FillGaussian(&rng, &v);
  const double quad = LanczosExpQuadrature(a, v, 25);
  const auto exact = DenseExpApply(a, v);
  EXPECT_NEAR(quad, Dot(v, exact), 1e-6 * std::abs(Dot(v, exact)));
}

TEST(LanczosTest, QuadratureZeroVectorIsZero) {
  const SymmetricSparseMatrix a = FromPairs(5, {{0, 1}});
  EXPECT_DOUBLE_EQ(LanczosExpQuadrature(a, std::vector<double>(5, 0.0), 5),
                   0.0);
}

TEST(LanczosTest, TopEigenvaluesMatchDense) {
  Rng rng(44);
  const auto a = RandomGraph(70, 5.0, &rng);
  const auto exact = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  Rng eig_rng(7);
  const auto top = TopEigenvalues(a, 5, 60, &eig_rng);
  ASSERT_EQ(top.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(top[i], exact[exact.size() - 1 - i], 1e-6);
  }
  // Descending order.
  for (int i = 0; i + 1 < 5; ++i) EXPECT_GE(top[i], top[i + 1] - 1e-12);
}

TEST(LanczosTest, TopEigenvaluesKZero) {
  const SymmetricSparseMatrix a(5, {});
  Rng rng(1);
  EXPECT_TRUE(TopEigenvalues(a, 0, 10, &rng).empty());
}

TEST(LanczosTest, TopEigenvaluesKLargerThanDim) {
  const SymmetricSparseMatrix a = FromPairs(3, {{0, 1}, {1, 2}});
  Rng rng(2);
  const auto top = TopEigenvalues(a, 10, 10, &rng);
  EXPECT_EQ(top.size(), 3u);
}

// Property sweep: Lanczos exp quadrature error decays with steps across
// different graph densities.
class LanczosConvergenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LanczosConvergenceTest, ErrorDecaysMonotonicallyInSteps) {
  const auto [n, degree] = GetParam();
  Rng rng(500 + n);
  const auto a = RandomGraph(n, degree, &rng);
  std::vector<double> v(n);
  FillGaussian(&rng, &v);
  const auto exact_vec = DenseExpApply(a, v);
  const double exact = Dot(v, exact_vec);
  double err_small = std::abs(LanczosExpQuadrature(a, v, 4) - exact);
  double err_large = std::abs(LanczosExpQuadrature(a, v, 16) - exact);
  EXPECT_LE(err_large, err_small + 1e-9);
  EXPECT_LT(err_large, 1e-6 * std::abs(exact) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GraphFamilies, LanczosConvergenceTest,
    ::testing::Combine(::testing::Values(20, 40, 80),
                       ::testing::Values(2.0, 4.0, 8.0)));

// The quadrature as the per-probe serial path computes it: Lanczos
// recurrence, full tridiagonal eigendecomposition, then the first-row
// weights summed in ascending eigenvalue order. The lane-blocked kernel
// must reproduce this bit for bit.
double ReferenceQuadrature(const MatVec& a, const std::vector<double>& v,
                           int steps) {
  const double v_norm = Norm2(v);
  if (v_norm == 0.0) return 0.0;
  LanczosOptions options;
  options.steps = steps;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v, options);
  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
  double quad = 0.0;
  for (std::size_t j = 0; j < tri.eigenvalues.size(); ++j) {
    const double z0 = tri.eigenvectors.At(0, static_cast<int>(j));
    quad += std::exp(tri.eigenvalues[j]) * z0 * z0;
  }
  return v_norm * v_norm * quad;
}

// Batch, single-lane call and reference agree exactly on every probe.
void ExpectMatchesReference(const MatVec& a,
                            const std::vector<std::vector<double>>& vs,
                            int steps) {
  const std::vector<double> batched = LanczosExpQuadratureBatch(a, vs, steps);
  ASSERT_EQ(batched.size(), vs.size());
  for (std::size_t b = 0; b < vs.size(); ++b) {
    const double reference = ReferenceQuadrature(a, vs[b], steps);
    EXPECT_EQ(batched[b], reference) << "lane " << b << " of " << vs.size();
    EXPECT_EQ(LanczosExpQuadrature(a, vs[b], steps), reference)
        << "lane " << b;
  }
}

TEST(LanczosBatchTest, QuadratureBatchBitIdenticalToReference) {
  // Probe counts below, at and across the 4-lane block width, so full
  // and partial final blocks are both exercised.
  for (int probes : {1, 3, 4, 5, 8, 50}) {
    SCOPED_TRACE(probes);
    Rng rng(700 + probes);
    const auto a = RandomGraph(60, 4.0, &rng);
    std::vector<std::vector<double>> vs(probes, std::vector<double>(60));
    for (auto& v : vs) FillGaussian(&rng, &v);
    ExpectMatchesReference(a, vs, 10);
  }
}

TEST(LanczosBatchTest, QuadratureBatchHandlesDegenerateLanes) {
  // A zero probe and a probe that breaks down at once (supported on an
  // isolated vertex) share blocks with healthy probes; each must drop out
  // on its own without disturbing its neighbours.
  Rng rng(55);
  std::set<std::pair<int, int>> pairs;
  for (int i = 0; i < 15; ++i) {
    const int u = static_cast<int>(rng.NextIndex(19));
    const int v = static_cast<int>(rng.NextIndex(19));
    if (u != v) pairs.insert({std::min(u, v), std::max(u, v)});
  }
  const SymmetricSparseMatrix a =
      FromPairs(20, {pairs.begin(), pairs.end()});
  // Vertex 19 stays isolated.
  std::vector<double> isolated(20, 0.0);
  isolated[19] = 2.0;  // A e_19 = 0
  std::vector<std::vector<double>> vs;
  for (int b = 0; b < 7; ++b) {
    std::vector<double> dense(20);
    FillGaussian(&rng, &dense);
    vs.push_back(dense);
  }
  vs[1].assign(20, 0.0);
  vs[2] = isolated;
  vs[5] = isolated;
  ExpectMatchesReference(a, vs, 8);
  const auto batched = LanczosExpQuadratureBatch(a, vs, 8);
  EXPECT_EQ(batched[1], 0.0);
  // e_19 is an eigenvector with eigenvalue 0: quadrature is exact,
  // ||v||^2 e^0 = 4.
  EXPECT_NEAR(batched[2], 4.0, 1e-12);
}

TEST(LanczosBatchTest, QuadratureBatchBreakdownOnDisconnectedAndTinyGraphs) {
  // Two triangles plus a path: probes supported on one small component
  // exhaust their Krylov space after a few steps while their lane-mates
  // run on; and on a 3-vertex graph n < steps breaks every lane down.
  const SymmetricSparseMatrix a = FromPairs(
      9, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {6, 7}, {7, 8}});
  Rng rng(91);
  std::vector<std::vector<double>> vs(6, std::vector<double>(9));
  for (auto& v : vs) FillGaussian(&rng, &v);
  for (int i = 3; i < 9; ++i) vs[1][i] = 0.0;  // triangle {0, 1, 2} only
  for (int i = 0; i < 6; ++i) vs[4][i] = 0.0;  // path {6, 7, 8} only
  ExpectMatchesReference(a, vs, 10);

  const SymmetricSparseMatrix tiny(3, {{0, 1, 1.0}, {1, 2, 0.5}});
  std::vector<std::vector<double>> tiny_vs(5, std::vector<double>(3));
  for (auto& v : tiny_vs) FillGaussian(&rng, &v);
  ExpectMatchesReference(tiny, tiny_vs, 10);
}

TEST(LanczosBatchTest, QuadratureBatchOnDenseOperator) {
  // DenseMatrix has no ApplyBatch override: the kernel must hold its
  // contract on MatVec's default lane-by-lane ApplyBatch too.
  Rng rng(67);
  const DenseMatrix dense = DenseMatrix::FromSparse(RandomGraph(30, 4.0, &rng));
  std::vector<std::vector<double>> vs(6, std::vector<double>(30));
  for (auto& v : vs) FillGaussian(&rng, &v);
  ExpectMatchesReference(dense, vs, 9);
}

TEST(LanczosBatchTest, QuadratureBatchMatchesAcrossCsrAndAdjacency) {
  // The CSR copy feeds identical bits through the kernel.
  Rng rng(66);
  const int n = 45;
  const auto a = RandomGraph(n, 4.0, &rng);
  const auto csr = CsrMatrix::FromSparse(a);
  std::vector<std::vector<double>> vs(6, std::vector<double>(n));
  for (auto& v : vs) FillGaussian(&rng, &v);
  const auto via_adj = LanczosExpQuadratureBatch(a, vs, 9);
  const auto via_csr = LanczosExpQuadratureBatch(csr, vs, 9);
  for (std::size_t b = 0; b < vs.size(); ++b) {
    EXPECT_EQ(via_adj[b], via_csr[b]);
    EXPECT_EQ(via_csr[b], ReferenceQuadrature(a, vs[b], 9));
  }
}

// Sum of exp(theta) * z0^2 over TridiagonalEigen's full output.
double FullEigenExpQuadrature(const std::vector<double>& diag,
                              const std::vector<double>& off) {
  const SymmetricEigenResult tri =
      TridiagonalEigen(diag, off, /*compute_vectors=*/true);
  double quad = 0.0;
  for (std::size_t j = 0; j < tri.eigenvalues.size(); ++j) {
    const double z0 = tri.eigenvectors.At(0, static_cast<int>(j));
    quad += std::exp(tri.eigenvalues[j]) * z0 * z0;
  }
  return quad;
}

TEST(TridiagonalExpQuadratureTest, BitIdenticalToFullEigenSum) {
  Rng rng(808);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextIndex(14));
    std::vector<double> diag(n);
    std::vector<double> off(n - 1);
    for (double& d : diag) d = rng.NextGaussian();
    for (double& e : off) e = rng.NextDouble(0.0, 2.0);
    EXPECT_EQ(TridiagonalExpQuadrature(diag, off),
              FullEigenExpQuadrature(diag, off))
        << "trial " << trial << " n=" << n;
  }
}

TEST(TridiagonalExpQuadratureTest, RepeatedEigenvaluesTieBreakIdentically) {
  // Zero couplings split T into blocks with equal eigenvalues, so the
  // ascending sort sees exact ties (the last case also takes std::sort past
  // its small-input insertion sort); the quadrature must still equal
  // TridiagonalEigen's sum bit for bit.
  std::vector<double> long_diag;
  std::vector<double> long_off;
  for (int i = 0; i < 40; ++i) {
    long_diag.push_back(i % 4 == 2 ? 3.0 : 1.0);
    if (i > 0) long_off.push_back(i % 3 == 0 ? 0.0 : 0.7);
  }
  const std::vector<std::vector<double>> diags = {
      {1.0, 1.0, 1.0, 1.0},
      {0.5, 2.0, 0.5, 2.0, 0.5},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
      {1.0, 1.0, 3.0, 1.0, 1.0, 3.0, 1.0, 1.0},
      long_diag};
  const std::vector<std::vector<double>> offs = {
      {0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0},
      {1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0},
      {0.7, 0.0, 0.0, 0.7, 0.0, 0.0, 0.7},
      long_off};
  for (std::size_t c = 0; c < diags.size(); ++c) {
    EXPECT_EQ(TridiagonalExpQuadrature(diags[c], offs[c]),
              FullEigenExpQuadrature(diags[c], offs[c]))
        << "case " << c;
  }
  EXPECT_EQ(TridiagonalExpQuadrature({}, {}), 0.0);
}

TEST(LanczosTest, DenseTraceExpSanity) {
  // Cross-check helper used in other tests: C4 cycle eigenvalues 2,0,0,-2.
  const SymmetricSparseMatrix a =
      FromPairs(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const double expected = std::exp(2.0) + 2.0 + std::exp(-2.0);
  EXPECT_NEAR(DenseTraceExp(a), expected, 1e-10);
}

}  // namespace
}  // namespace ctbus::linalg
