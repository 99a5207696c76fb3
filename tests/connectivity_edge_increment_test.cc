#include "connectivity/edge_increment.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "connectivity/natural_connectivity.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {
namespace {

linalg::SymmetricSparseMatrix RandomGraph(int n, double avg_degree,
                                          linalg::Rng* rng) {
  linalg::SymmetricSparseMatrix a(n);
  const int edges = static_cast<int>(n * avg_degree / 2.0);
  for (int i = 0; i < edges; ++i) {
    const int u = static_cast<int>(rng->NextIndex(n));
    const int v = static_cast<int>(rng->NextIndex(n));
    if (u != v) a.Set(u, v, 1.0);
  }
  return a;
}

std::pair<int, int> FindAbsentEdge(const linalg::SymmetricSparseMatrix& a,
                                   linalg::Rng* rng) {
  for (;;) {
    const int u = static_cast<int>(rng->NextIndex(a.dim()));
    const int v = static_cast<int>(rng->NextIndex(a.dim()));
    if (u != v && !a.Contains(u, v)) return {u, v};
  }
}

EstimatorOptions TestOptions() {
  EstimatorOptions options;
  options.probes = 40;
  options.lanczos_steps = 20;
  options.seed = 7;
  return options;
}

TEST(EdgeIncrementTest, MatrixRestoredAfterCall) {
  linalg::Rng rng(1);
  auto a = RandomGraph(40, 3.0, &rng);
  const auto [u, v] = FindAbsentEdge(a, &rng);
  const auto entries_before = a.num_entries();
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  EdgeIncrement(&a, base, est, u, v);
  EXPECT_EQ(a.num_entries(), entries_before);
  EXPECT_FALSE(a.Contains(u, v));
}

TEST(EdgeIncrementTest, ExistingEdgeHasZeroIncrement) {
  linalg::Rng rng(2);
  auto a = RandomGraph(30, 3.0, &rng);
  // Pick an existing edge.
  int u = -1, v = -1;
  for (int i = 0; i < a.dim() && u < 0; ++i) {
    if (a.RowDegree(i) > 0) {
      u = i;
      v = a.Row(i)[0].col;
    }
  }
  ASSERT_GE(u, 0);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  EXPECT_DOUBLE_EQ(EdgeIncrement(&a, est.Estimate(a), est, u, v), 0.0);
}

TEST(EdgeIncrementTest, IncrementIsPositiveForNewEdges) {
  linalg::Rng rng(3);
  auto a = RandomGraph(50, 3.0, &rng);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  for (int trial = 0; trial < 10; ++trial) {
    const auto [u, v] = FindAbsentEdge(a, &rng);
    // CRN makes the increment exactly the deterministic difference of two
    // estimates with the same probes; it must be positive (monotonicity
    // survives CRN estimation in practice).
    EXPECT_GT(EdgeIncrement(&a, base, est, u, v), 0.0);
  }
}

TEST(EdgeIncrementTest, TracksExactIncrement) {
  linalg::Rng rng(4);
  auto a = RandomGraph(60, 4.0, &rng);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base_est = est.Estimate(a);
  const double base_exact = NaturalConnectivityExact(a);
  for (int trial = 0; trial < 5; ++trial) {
    const auto [u, v] = FindAbsentEdge(a, &rng);
    const double inc_est = EdgeIncrement(&a, base_est, est, u, v);
    a.Set(u, v, 1.0);
    const double inc_exact = NaturalConnectivityExact(a) - base_exact;
    a.Remove(u, v);
    // A stochastic estimate of a ~1e-2 increment: demand the right sign and
    // the right order of magnitude.
    EXPECT_NEAR(inc_est, inc_exact, 0.8 * inc_exact + 5e-3);
  }
}

TEST(EdgeIncrementTest, EdgeSetIncrementRestoresMatrix) {
  linalg::Rng rng(6);
  auto a = RandomGraph(40, 3.0, &rng);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 5; ++i) pairs.push_back(FindAbsentEdge(a, &rng));
  const auto entries_before = a.num_entries();
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  const double inc = EdgeSetIncrement(&a, base, est, pairs);
  EXPECT_EQ(a.num_entries(), entries_before);
  EXPECT_GT(inc, 0.0);
}

TEST(EdgeIncrementTest, EdgeSetIncrementSkipsExistingEdges) {
  linalg::Rng rng(7);
  auto a = RandomGraph(30, 3.0, &rng);
  int u = -1, v = -1;
  for (int i = 0; i < a.dim() && u < 0; ++i) {
    if (a.RowDegree(i) > 0) {
      u = i;
      v = a.Row(i)[0].col;
    }
  }
  ASSERT_GE(u, 0);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  EXPECT_DOUBLE_EQ(EdgeSetIncrement(&a, base, est, {{u, v}}), 0.0);
}

TEST(EdgeIncrementTest, NearAdditivityForSmallSets) {
  // Figure 3: the set increment is close to the sum of individual
  // increments (natural connectivity is approximately linear for small
  // additions). Verify within a loose factor.
  linalg::Rng rng(8);
  auto a = RandomGraph(60, 4.0, &rng);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back(FindAbsentEdge(a, &rng));
  EstimatorOptions options = TestOptions();
  options.probes = 40;
  const ConnectivityEstimator est(a.dim(), options);
  const double base = est.Estimate(a);
  double sum = 0.0;
  for (const auto& [u, v] : pairs) {
    sum += EdgeIncrement(&a, base, est, u, v);
  }
  const double joint = EdgeSetIncrement(&a, base, est, pairs);
  EXPECT_NEAR(joint, sum, 0.5 * std::max(joint, sum));
}

}  // namespace
}  // namespace ctbus::connectivity
