#include "linalg/hutchinson.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "tests/matrix_builders.h"

namespace ctbus::linalg {
namespace {

using testutil::FromPairs;
using testutil::RandomGraph;
using testutil::WithEdges;

double DenseTraceExp(const SymmetricSparseMatrix& a) {
  const auto values = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  double acc = 0.0;
  for (double w : values) acc += std::exp(w);
  return acc;
}

TEST(HutchinsonTest, MakeGaussianProbesShape) {
  Rng rng(1);
  const auto probes = MakeGaussianProbes(10, 5, &rng);
  ASSERT_EQ(probes.size(), 5u);
  for (const auto& p : probes) EXPECT_EQ(p.size(), 10u);
}

TEST(HutchinsonTest, PaperDefaultsWithinOnePercentOnSparseGraph) {
  // Paper setting: s = 50 probes, t = 10 Lanczos steps, ~1% error claimed.
  Rng rng(42);
  const auto a = RandomGraph(120, 4.0, &rng);
  const double exact = DenseTraceExp(a);
  Rng est_rng(7);
  const double est = EstimateTraceExp(a, 50, 10, &est_rng);
  EXPECT_NEAR(est, exact, 0.05 * exact);  // generous 5% for a single seed
}

TEST(HutchinsonTest, ErrorShrinksWithMoreProbes) {
  Rng rng(43);
  const auto a = RandomGraph(100, 4.0, &rng);
  const double exact = DenseTraceExp(a);
  // Average absolute error over several seeds for 4 vs 64 probes.
  double err_few = 0.0;
  double err_many = 0.0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng r1(100 + seed);
    Rng r2(100 + seed);
    err_few += std::abs(EstimateTraceExp(a, 4, 12, &r1) - exact);
    err_many += std::abs(EstimateTraceExp(a, 64, 12, &r2) - exact);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(HutchinsonTest, ExactOnIdentityLikeEmptyGraph) {
  // A = 0 (empty graph): tr(exp(0)) = n exactly; the quadrature is exact and
  // Hutchinson is unbiased with E[v^T v] = n.
  const SymmetricSparseMatrix a(30, {});
  Rng rng(5);
  const double est = EstimateTraceExp(a, 200, 2, &rng);
  EXPECT_NEAR(est, 30.0, 2.0);
}

TEST(HutchinsonTest, CommonProbesGiveIdenticalEstimateForSameMatrix) {
  Rng rng(44);
  const auto a = RandomGraph(60, 4.0, &rng);
  Rng probe_rng(9);
  const auto probes = MakeGaussianProbes(a.dim(), 20, &probe_rng);
  const double e1 = EstimateTraceExpWithProbes(a, probes, 10);
  const double e2 = EstimateTraceExpWithProbes(a, probes, 10);
  EXPECT_DOUBLE_EQ(e1, e2);
}

TEST(HutchinsonTest, CommonRandomNumbersReduceIncrementVariance) {
  // The increment tr(exp(A+e)) - tr(exp(A)) is tiny; estimating both terms
  // with the same probes must give far lower variance than independent
  // probes. This is the engineering linchpin of Delta(e) pre-computation.
  Rng rng(45);
  const auto a = RandomGraph(80, 4.0, &rng);
  // Choose an absent edge to add.
  int u = -1, v = -1;
  for (int i = 0; i < 80 && u < 0; ++i) {
    for (int j = i + 1; j < 80; ++j) {
      if (!a.Contains(i, j)) {
        u = i;
        v = j;
        break;
      }
    }
  }
  ASSERT_GE(u, 0);
  const SymmetricSparseMatrix with = WithEdges(a, {{u, v}});
  const double exact_before = DenseTraceExp(a);
  const double exact_after = DenseTraceExp(with);
  const double exact_increment = exact_after - exact_before;

  double crn_sq_err = 0.0;
  double indep_sq_err = 0.0;
  const int trials = 6;
  for (int trial = 0; trial < trials; ++trial) {
    Rng probe_rng(1000 + trial);
    const auto probes = MakeGaussianProbes(a.dim(), 30, &probe_rng);
    const double before = EstimateTraceExpWithProbes(a, probes, 12);
    const double after_crn = EstimateTraceExpWithProbes(with, probes, 12);
    Rng other_rng(5000 + trial);
    const auto other_probes = MakeGaussianProbes(a.dim(), 30, &other_rng);
    const double after_indep =
        EstimateTraceExpWithProbes(with, other_probes, 12);
    const double crn_err = (after_crn - before) - exact_increment;
    const double indep_err = (after_indep - before) - exact_increment;
    crn_sq_err += crn_err * crn_err;
    indep_sq_err += indep_err * indep_err;
  }
  EXPECT_LT(crn_sq_err, indep_sq_err);
}

TEST(HutchinsonTest, RejectsNonPositiveProbeCount) {
  // probes = 0 used to fall through to a 0/0 average (NaN) that poisoned
  // every downstream connectivity value; it is now a documented error.
  Rng rng(3);
  EXPECT_THROW(MakeGaussianProbes(10, 0, &rng), std::invalid_argument);
  EXPECT_THROW(MakeGaussianProbes(10, -3, &rng), std::invalid_argument);
  const SymmetricSparseMatrix a(10, {});
  EXPECT_THROW(EstimateTraceExp(a, 0, 5, &rng), std::invalid_argument);
  EXPECT_THROW(EstimateTraceExpWithProbes(a, {}, 5), std::invalid_argument);
  EXPECT_THROW(EstimateTraceExpBatched(a, {}, 5), std::invalid_argument);
}

// The estimate as the per-probe serial path computes it: each probe's
// Lanczos recurrence and full tridiagonal eigendecomposition, quadratures
// summed in probe order.
double ReferenceTraceExp(const MatVec& a,
                         const std::vector<std::vector<double>>& probes,
                         int steps) {
  double acc = 0.0;
  for (const auto& v : probes) {
    const double v_norm = Norm2(v);
    if (v_norm == 0.0) continue;
    LanczosOptions options;
    options.steps = steps;
    const LanczosResult lanczos = LanczosTridiagonalize(a, v, options);
    const SymmetricEigenResult tri = TridiagonalEigen(
        lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
    double quad = 0.0;
    for (std::size_t j = 0; j < tri.eigenvalues.size(); ++j) {
      const double z0 = tri.eigenvectors.At(0, static_cast<int>(j));
      quad += std::exp(tri.eigenvalues[j]) * z0 * z0;
    }
    acc += v_norm * v_norm * quad;
  }
  return acc / static_cast<double>(probes.size());
}

TEST(HutchinsonTest, EstimateBitIdenticalToPerProbeReference) {
  // Both entry points run the lane-blocked kernel; across probe counts
  // that fill, straddle and undershoot its 4-lane blocks, the estimate
  // must equal the per-probe serial reference exactly.
  Rng rng(46);
  const auto a = RandomGraph(70, 4.0, &rng);
  for (int probes : {1, 3, 4, 5, 8, 50}) {
    Rng probe_rng(900 + probes);
    const auto vs = MakeGaussianProbes(a.dim(), probes, &probe_rng);
    const double reference = ReferenceTraceExp(a, vs, 10);
    EXPECT_EQ(EstimateTraceExpWithProbes(a, vs, 10), reference)
        << "probes=" << probes;
    EXPECT_EQ(EstimateTraceExpBatched(a, vs, 10), reference)
        << "probes=" << probes;
  }
}

TEST(HutchinsonTest, EstimateBitIdenticalWithZeroProbeAndBreakdown) {
  // A zero probe, and a graph whose isolated vertices and tiny components
  // break lanes down early, inside otherwise healthy blocks.
  const SymmetricSparseMatrix a =
      FromPairs(12, {{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}, {7, 8}});
  Rng probe_rng(47);
  auto vs = MakeGaussianProbes(a.dim(), 6, &probe_rng);
  vs[2].assign(12, 0.0);
  vs[4].assign(12, 0.0);
  vs[4][10] = 1.5;  // vertex 10 is isolated
  EXPECT_EQ(EstimateTraceExpWithProbes(a, vs, 10),
            ReferenceTraceExp(a, vs, 10));
}

TEST(HutchinsonTest, EstimateBitIdenticalOnDenseOperator) {
  // DenseMatrix runs MatVec's default ApplyBatch.
  Rng rng(48);
  const DenseMatrix dense = DenseMatrix::FromSparse(RandomGraph(25, 4.0, &rng));
  Rng probe_rng(49);
  const auto vs = MakeGaussianProbes(dense.dim(), 7, &probe_rng);
  EXPECT_EQ(EstimateTraceExpWithProbes(dense, vs, 8),
            ReferenceTraceExp(dense, vs, 8));
}

class HutchinsonSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HutchinsonSweepTest, RelativeErrorBoundedAcrossGraphSizes) {
  const int n = GetParam();
  Rng rng(600 + n);
  const auto a = RandomGraph(n, 4.0, &rng);
  const double exact = DenseTraceExp(a);
  Rng est_rng(8);
  const double est = EstimateTraceExp(a, 50, 10, &est_rng);
  EXPECT_NEAR(est, exact, 0.08 * exact);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HutchinsonSweepTest,
                         ::testing::Values(20, 50, 100, 150, 200));

}  // namespace
}  // namespace ctbus::linalg
