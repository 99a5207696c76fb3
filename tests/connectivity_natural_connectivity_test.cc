#include "connectivity/natural_connectivity.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "tests/matrix_builders.h"

namespace ctbus::connectivity {
namespace {

using testutil::FromPairs;
using testutil::RandomGraph;
using testutil::WithEdges;

TEST(NaturalConnectivityTest, EmptyGraphAllZeros) {
  // A = 0 on n vertices: all eigenvalues 0, lambda = ln(n * 1 / n) = 0.
  const linalg::SymmetricSparseMatrix a(7, {});
  EXPECT_NEAR(NaturalConnectivityExact(a), 0.0, 1e-12);
}

TEST(NaturalConnectivityTest, SingleEdgeClosedForm) {
  // K2 plus isolated vertices: eigenvalues {1, -1, 0...}.
  const int n = 5;
  const linalg::SymmetricSparseMatrix a = FromPairs(n, {{0, 1}});
  const double expected =
      std::log((std::exp(1.0) + std::exp(-1.0) + (n - 2)) / n);
  EXPECT_NEAR(NaturalConnectivityExact(a), expected, 1e-12);
}

TEST(NaturalConnectivityTest, CompleteGraphClosedForm) {
  // K_n: eigenvalues {n-1, -1 x (n-1)}.
  const int n = 6;
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) pairs.push_back({i, j});
  }
  const linalg::SymmetricSparseMatrix a = FromPairs(n, pairs);
  const double expected =
      std::log((std::exp(n - 1.0) + (n - 1) * std::exp(-1.0)) / n);
  EXPECT_NEAR(NaturalConnectivityExact(a), expected, 1e-10);
}

TEST(NaturalConnectivityTest, MonotoneUnderEdgeAddition) {
  // Adding any edge cannot decrease natural connectivity (Wu et al.).
  linalg::Rng rng(9);
  linalg::SymmetricSparseMatrix a = RandomGraph(30, 3.0, &rng);
  double prev = NaturalConnectivityExact(a);
  for (int add = 0; add < 15; ++add) {
    int u, v;
    do {
      u = static_cast<int>(rng.NextIndex(30));
      v = static_cast<int>(rng.NextIndex(30));
    } while (u == v || a.Contains(u, v));
    a = WithEdges(a, {{u, v}});
    const double next = NaturalConnectivityExact(a);
    EXPECT_GE(next, prev - 1e-12);
    prev = next;
  }
}

TEST(NaturalConnectivityTest, EstimateTracksExactWithinOnePercentTrace) {
  // Paper claim: s=50, t=10 estimates lambda with ~1% error on tr(e^A).
  linalg::Rng rng(10);
  const auto a = RandomGraph(150, 4.0, &rng);
  const double exact = NaturalConnectivityExact(a);
  EstimatorOptions options;
  options.seed = 3;
  const double estimate = NaturalConnectivityEstimate(a, options);
  // 1% multiplicative error on tr(e^A) is ~0.01 additive on lambda.
  EXPECT_NEAR(estimate, exact, 0.05);
}

TEST(NaturalConnectivityTest, EstimatorIsDeterministicGivenSeed) {
  linalg::Rng rng(11);
  const auto a = RandomGraph(60, 4.0, &rng);
  EstimatorOptions options;
  options.seed = 42;
  const ConnectivityEstimator e1(a.dim(), options);
  const ConnectivityEstimator e2(a.dim(), options);
  EXPECT_DOUBLE_EQ(e1.Estimate(a), e2.Estimate(a));
}

TEST(NaturalConnectivityTest, DifferentSeedsDifferentEstimates) {
  linalg::Rng rng(12);
  const auto a = RandomGraph(60, 4.0, &rng);
  EstimatorOptions o1;
  o1.seed = 1;
  EstimatorOptions o2;
  o2.seed = 2;
  EXPECT_NE(NaturalConnectivityEstimate(a, o1),
            NaturalConnectivityEstimate(a, o2));
}

TEST(NaturalConnectivityTest, OptionsEqualityCoversEveryFieldOfTheResult) {
  // operator== is what keys shared estimator state (the serving layer's
  // per-worker planning base), so every field it compares must be one
  // that changes an estimate, and every such field must be compared.
  linalg::Rng rng(13);
  const auto a = RandomGraph(60, 4.0, &rng);
  const EstimatorOptions base;
  EXPECT_TRUE(base == EstimatorOptions{});
  EXPECT_FALSE(base != EstimatorOptions{});
  const double base_estimate = ConnectivityEstimator(a.dim(), base).Estimate(a);

  std::vector<EstimatorOptions> variants(4, base);
  variants[0].probes = 20;
  variants[1].lanczos_steps = 6;
  variants[2].seed = 2;
  variants[3].probe_kind = ProbeKind::kRademacher;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_FALSE(variants[i] == base) << "field " << i;
    EXPECT_TRUE(variants[i] != base) << "field " << i;
    EXPECT_NE(ConnectivityEstimator(a.dim(), variants[i]).Estimate(a),
              base_estimate)
        << "field " << i;
  }
}

TEST(NaturalConnectivityTest, EstimatorAccessors) {
  EstimatorOptions options;
  options.probes = 13;
  options.lanczos_steps = 7;
  const ConnectivityEstimator est(20, options);
  EXPECT_EQ(est.dim(), 20);
  EXPECT_EQ(est.probes(), 13);
  EXPECT_EQ(est.lanczos_steps(), 7);
}

TEST(NaturalConnectivityTest, CrnIncrementMatchesExactIncrement) {
  // The estimator's increment between G and G+e must track the exact
  // increment closely thanks to common random numbers.
  linalg::Rng rng(14);
  auto a = RandomGraph(80, 4.0, &rng);
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
  const double exact_before = NaturalConnectivityExact(a);
  EstimatorOptions options;
  options.probes = 40;
  options.lanczos_steps = 20;
  options.seed = 5;
  const ConnectivityEstimator est(a.dim(), options);
  const double est_before = est.Estimate(a);
  a = WithEdges(a, {{u, v}});
  const double exact_after = NaturalConnectivityExact(a);
  const double est_after = est.Estimate(a);
  const double exact_inc = exact_after - exact_before;
  const double est_inc = est_after - est_before;
  EXPECT_NEAR(est_inc, exact_inc, 0.8 * exact_inc + 5e-3);
}

TEST(NaturalConnectivityTest, RademacherProbesAlsoAccurate) {
  linalg::Rng rng(15);
  const auto a = RandomGraph(120, 4.0, &rng);
  const double exact = NaturalConnectivityExact(a);
  EstimatorOptions options;
  options.probe_kind = ProbeKind::kRademacher;
  options.seed = 4;
  EXPECT_NEAR(NaturalConnectivityEstimate(a, options), exact, 0.05);
}

TEST(NaturalConnectivityTest, RademacherVarianceNotWorseThanGaussian) {
  // Hutchinson's original Rademacher probes have provably minimal variance
  // among i.i.d. sign-symmetric probes; over several seeds their mean
  // absolute error must not exceed the Gaussian probes' by much.
  linalg::Rng rng(16);
  const auto a = RandomGraph(100, 4.0, &rng);
  const double exact = NaturalConnectivityExact(a);
  double err_rademacher = 0.0;
  double err_gaussian = 0.0;
  for (int seed = 0; seed < 10; ++seed) {
    EstimatorOptions r;
    r.probe_kind = ProbeKind::kRademacher;
    r.probes = 20;
    r.seed = 100 + seed;
    EstimatorOptions g;
    g.probes = 20;
    g.seed = 100 + seed;
    err_rademacher += std::abs(NaturalConnectivityEstimate(a, r) - exact);
    err_gaussian += std::abs(NaturalConnectivityEstimate(a, g) - exact);
  }
  EXPECT_LT(err_rademacher, 1.5 * err_gaussian);
}

class ConnectivityFamilyTest : public ::testing::TestWithParam<double> {};

TEST_P(ConnectivityFamilyTest, EstimateWithinToleranceAcrossDensities) {
  const double degree = GetParam();
  linalg::Rng rng(static_cast<std::uint64_t>(degree * 100));
  const auto a = RandomGraph(100, degree, &rng);
  const double exact = NaturalConnectivityExact(a);
  EstimatorOptions options;
  options.seed = 17;
  EXPECT_NEAR(NaturalConnectivityEstimate(a, options), exact, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Densities, ConnectivityFamilyTest,
                         ::testing::Values(2.0, 3.0, 4.0, 6.0));

}  // namespace
}  // namespace ctbus::connectivity
