#include "connectivity/bounds.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "connectivity/natural_connectivity.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "tests/matrix_builders.h"

namespace ctbus::connectivity {
namespace {

using testutil::RandomGraph;
using testutil::WithEdges;

std::vector<double> TopEigs(const linalg::SymmetricSparseMatrix& a,
                            int count) {
  auto values =
      linalg::SymmetricEigenvalues(linalg::DenseMatrix::FromSparse(a));
  std::vector<double> top;
  for (int i = 0; i < count && i < static_cast<int>(values.size()); ++i) {
    top.push_back(values[values.size() - 1 - i]);
  }
  return top;
}

// `a` plus a random simple path of k new edges over fresh vertices.
linalg::SymmetricSparseMatrix WithRandomPath(
    const linalg::SymmetricSparseMatrix& a, int k, linalg::Rng* rng) {
  const int n = a.dim();
  std::vector<int> visited;
  std::vector<std::pair<int, int>> path;
  int current = static_cast<int>(rng->NextIndex(n));
  visited.push_back(current);
  int guard = 0;
  while (static_cast<int>(path.size()) < k && ++guard < 100000) {
    const int next = static_cast<int>(rng->NextIndex(n));
    bool used = next == current || a.Contains(current, next);
    for (int v : visited) used = used || (v == next);
    if (used) continue;
    path.push_back({current, next});
    visited.push_back(next);
    current = next;
  }
  return WithEdges(a, path);
}

TEST(BoundsTest, PathGraphEigenvaluesClosedForm) {
  const auto sigma = PathGraphEigenvalues(3);  // P4: 4 vertices
  ASSERT_EQ(sigma.size(), 4u);
  // Known: eigenvalues of P4 are +/- golden-ratio pairs.
  EXPECT_NEAR(sigma[0], (1.0 + std::sqrt(5.0)) / 2.0, 1e-12);
  EXPECT_NEAR(sigma[3], -(1.0 + std::sqrt(5.0)) / 2.0, 1e-12);
  // Descending order and symmetric spectrum.
  for (std::size_t i = 0; i + 1 < sigma.size(); ++i) {
    EXPECT_GT(sigma[i], sigma[i + 1]);
  }
}

TEST(BoundsTest, PathGraphEigenvaluesSumToZero) {
  for (int k = 1; k <= 10; ++k) {
    const auto sigma = PathGraphEigenvalues(k);
    double sum = 0.0;
    for (double s : sigma) sum += s;
    EXPECT_NEAR(sum, 0.0, 1e-10);
  }
}

TEST(BoundsTest, EstradaBoundDominatesAnyGraph) {
  // The Estrada bound must dominate the true connectivity of the enhanced
  // graph for any choice of k added edges.
  linalg::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = RandomGraph(40, 3.0, &rng);
    const int k = 5;
    const int edges_before = static_cast<int>(a.num_entries());
    const double bound = EstradaUpperBound(a.dim(), edges_before, k);
    EXPECT_GE(bound, NaturalConnectivityExact(WithRandomPath(a, k, &rng)) -
                         1e-9);
  }
}

TEST(BoundsTest, GeneralBoundDominatesArbitraryEdgeAdditions) {
  linalg::Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = RandomGraph(40, 3.0, &rng);
    const int k = 4;
    const double lambda_g = NaturalConnectivityExact(a);
    const auto top = TopEigs(a, 2 * k);
    const double bound = GeneralUpperBound(lambda_g, top, k, a.dim());
    // Add k arbitrary (non-path) edges.
    std::set<std::pair<int, int>> added;
    while (static_cast<int>(added.size()) < k) {
      const int u = static_cast<int>(rng.NextIndex(40));
      const int v = static_cast<int>(rng.NextIndex(40));
      if (u == v || a.Contains(u, v)) continue;
      added.insert({std::min(u, v), std::max(u, v)});
    }
    EXPECT_GE(bound, NaturalConnectivityExact(WithEdges(
                         a, {added.begin(), added.end()})) -
                         1e-9);
  }
}

TEST(BoundsTest, PathBoundDominatesPathAdditions) {
  linalg::Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = RandomGraph(40, 3.0, &rng);
    const int k = 6;
    const double lambda_g = NaturalConnectivityExact(a);
    const auto top = TopEigs(a, (k + 1) / 2);
    const double bound = PathUpperBound(lambda_g, top, k, a.dim());
    EXPECT_GE(bound, NaturalConnectivityExact(WithRandomPath(a, k, &rng)) -
                         1e-9);
  }
}

TEST(BoundsTest, TightnessOrderingMatchesTable3) {
  // Table 3: Estrada >> general bound > path bound (as increments over
  // lambda(G)); all are valid upper bounds.
  linalg::Rng rng(24);
  const auto a = RandomGraph(60, 4.0, &rng);
  const int k = 15;
  const double lambda_g = NaturalConnectivityExact(a);
  const auto top = TopEigs(a, 2 * k);
  const double estrada =
      EstradaUpperBound(a.dim(), static_cast<int>(a.num_entries()), k);
  const double general = GeneralUpperBound(lambda_g, top, k, a.dim());
  const double path = PathUpperBound(lambda_g, top, k, a.dim());
  EXPECT_GT(estrada, general);
  EXPECT_GT(general, path);
  EXPECT_GE(path, lambda_g);
}

TEST(BoundsTest, PathBoundIncreasesWithK) {
  linalg::Rng rng(25);
  const auto a = RandomGraph(50, 4.0, &rng);
  const double lambda_g = NaturalConnectivityExact(a);
  const auto top = TopEigs(a, 30);
  double prev = lambda_g;
  for (int k = 1; k <= 20; k += 3) {
    const double bound = PathUpperBound(lambda_g, top, k, a.dim());
    EXPECT_GE(bound, prev - 1e-12);
    prev = bound;
  }
}

TEST(BoundsTest, MissingEigenvaluesTreatedAsZeroStillValid) {
  // Supplying fewer top eigenvalues must yield a bound that still dominates
  // the one with full information... for the path bound the correction uses
  // e^{lambda_i}; replacing missing lambda_i with 0 gives e^0 = 1 > 0, so the
  // bound stays finite and valid.
  linalg::Rng rng(26);
  const auto a = RandomGraph(40, 3.0, &rng);
  const int k = 8;
  const double lambda_g = NaturalConnectivityExact(a);
  const double bound_no_info = PathUpperBound(lambda_g, {}, k, a.dim());
  // Not guaranteed to dominate with zero eigen-info in general, but for
  // sparse graphs with lambda_1 > 0 it must (e^{lambda_i} >= 1 for the top
  // ones that matter). Verify on this family.
  EXPECT_GE(bound_no_info, lambda_g);
}

// The pre-log-space evaluations, kept verbatim as counterfactual
// references: they are exact while every exponent stays under ~709 and
// overflow to inf (or inf - inf = NaN) past it.
double LinearSpaceEstrada(int n, int m, int k) {
  const double s = std::sqrt(2.0 * (static_cast<double>(m) + k));
  return std::log((n - 1.0 + std::exp(s)) / n);
}

double LinearSpaceGeneral(double lambda_g, const std::vector<double>& top,
                          int k, int n) {
  double trace = n * std::exp(lambda_g);
  const double lambda_1 = top.empty() ? 0.0 : top[0];
  trace += std::exp(lambda_1) * (2.0 * k - 1.0 + std::exp(std::sqrt(2.0 * k)));
  for (int i = 0; i < 2 * k; ++i) {
    trace -= std::exp(i < static_cast<int>(top.size()) ? top[i] : 0.0);
  }
  return std::log(trace / n);
}

double LinearSpacePath(double lambda_g, const std::vector<double>& top,
                       int k, int n) {
  const auto sigma = PathGraphEigenvalues(k);
  double sum = std::exp(lambda_g);
  for (int i = 0; i < (k + 1) / 2; ++i) {
    const double lambda_i = i < static_cast<int>(top.size()) ? top[i] : 0.0;
    sum += (std::exp(sigma[i]) - 1.0) * std::exp(lambda_i) / n;
  }
  return std::log(sum);
}

TEST(BoundsOverflowTest, MatchesLinearSpaceEvaluationAtSmallScale) {
  // Where the linear-space formulas are representable, the log-space
  // rewrite must agree to near machine precision — it is the same math.
  linalg::Rng rng(31);
  const auto a = RandomGraph(40, 4.0, &rng);
  const int n = a.dim();
  const int m = static_cast<int>(a.num_entries());
  const double lambda_g = NaturalConnectivityExact(a);
  for (int k : {1, 3, 8}) {
    const auto top = TopEigs(a, 2 * k);
    EXPECT_NEAR(EstradaUpperBound(n, m, k), LinearSpaceEstrada(n, m, k),
                1e-12 * std::abs(LinearSpaceEstrada(n, m, k)));
    EXPECT_NEAR(GeneralUpperBound(lambda_g, top, k, n),
                LinearSpaceGeneral(lambda_g, top, k, n), 1e-12);
    EXPECT_NEAR(PathUpperBound(lambda_g, top, k, n),
                LinearSpacePath(lambda_g, top, k, n), 1e-12);
  }
}

TEST(BoundsOverflowTest, StaysFiniteWhereLinearSpaceOverflows) {
  // City scale: |E| ~ 5M edges puts sqrt(2m) ~ 3162 >> 709, and a hub
  // vertex can push lambda_1 (and with it lambda_g) into the hundreds.
  // The old evaluation returns inf (Estrada, path) or inf - inf = NaN
  // (general); the rewrite must return ordinary finite doubles that still
  // dominate lambda_g.
  const int n = 2'000'000;
  const int m = 5'000'000;
  const int k = 40;
  ASSERT_TRUE(std::isinf(LinearSpaceEstrada(n, m, k)));
  const double estrada = EstradaUpperBound(n, m, k);
  EXPECT_TRUE(std::isfinite(estrada));
  // ln((n - 1 + e^s)/n) ~ s - ln n for s = sqrt(2(m + k)) >> ln n.
  const double s = std::sqrt(2.0 * (m + static_cast<double>(k)));
  EXPECT_NEAR(estrada, s - std::log(static_cast<double>(n)), 1e-6);

  const double lambda_g = 800.0;
  std::vector<double> top;
  for (int i = 0; i < 2 * k; ++i) top.push_back(810.0 - i);
  ASSERT_FALSE(std::isfinite(LinearSpaceGeneral(lambda_g, top, k, n)));
  const double general = GeneralUpperBound(lambda_g, top, k, n);
  EXPECT_TRUE(std::isfinite(general));
  EXPECT_GE(general, lambda_g);

  ASSERT_TRUE(std::isinf(LinearSpacePath(lambda_g, top, k, n)));
  const double path = PathUpperBound(lambda_g, top, k, n);
  EXPECT_TRUE(std::isfinite(path));
  EXPECT_GE(path, lambda_g);
  // The Table 3 ordering must survive the change of evaluation.
  EXPECT_GE(general, path - 1e-9);
}

TEST(BoundsOverflowTest, GeneralBoundFallsBackToLambdaGOnGarbageInput) {
  // An eigenvalue list that is inconsistent (sums to more trace than the
  // additive term supplies) would make the old code take log of a
  // non-positive number (NaN). The rewrite returns lambda_g — the
  // tightest defensible value, since adding edges never decreases it.
  const double lambda_g = -100.0;
  // Unsorted: lambda_1 = 0 scales the additive term, but the subtracted
  // "top" eigenvalues include a 10, so the corrected trace goes negative.
  const std::vector<double> top = {0.0, 10.0};
  const double bound = GeneralUpperBound(lambda_g, top, /*k=*/1, /*n=*/1);
  EXPECT_EQ(bound, lambda_g);
}

class PathBoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(PathBoundSweep, DominanceAcrossK) {
  const int k = GetParam();
  linalg::Rng rng(300 + k);
  const auto a = RandomGraph(50, 3.0, &rng);
  const double lambda_g = NaturalConnectivityExact(a);
  const auto top = TopEigs(a, (k + 1) / 2);
  const double bound = PathUpperBound(lambda_g, top, k, a.dim());
  EXPECT_GE(bound,
            NaturalConnectivityExact(WithRandomPath(a, k, &rng)) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ks, PathBoundSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20));

}  // namespace
}  // namespace ctbus::connectivity
