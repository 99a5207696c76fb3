#include "core/planning_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "connectivity/bounds.h"
#include "core/baselines.h"
#include "core/eta.h"
#include "gen/datasets.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "tests/matrix_builders.h"

namespace ctbus::core {
namespace {

CtBusOptions FastOptions() {
  CtBusOptions options;
  options.k = 8;
  options.online_estimator = {/*probes=*/20, /*lanczos_steps=*/10,
                              /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

class PlanningContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeMidtown());
    context_ = new PlanningContext(
        PlanningContext::Build(dataset_->road, dataset_->transit,
                               FastOptions()));
  }
  static void TearDownTestSuite() {
    delete context_;
    delete dataset_;
    context_ = nullptr;
    dataset_ = nullptr;
  }

  static gen::Dataset* dataset_;
  static PlanningContext* context_;
};

gen::Dataset* PlanningContextTest::dataset_ = nullptr;
PlanningContext* PlanningContextTest::context_ = nullptr;

TEST_F(PlanningContextTest, RankedListsCoverUniverse) {
  const int n = context_->universe().num_edges();
  EXPECT_EQ(context_->demand_list().size(), n);
  EXPECT_EQ(context_->increment_list().size(), n);
  EXPECT_EQ(context_->BuildObjectiveList().size(), n);
  EXPECT_EQ(static_cast<int>(context_->increments().size()), n);
}

TEST_F(PlanningContextTest, ExistingEdgesHaveZeroIncrement) {
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (!context_->universe().edge(e).is_new) {
      EXPECT_DOUBLE_EQ(context_->increments()[e], 0.0);
    } else {
      EXPECT_GE(context_->increments()[e], 0.0);
    }
  }
}

TEST_F(PlanningContextTest, NormalizationMatchesEquation12) {
  const auto& options = context_->options();
  EXPECT_DOUBLE_EQ(context_->d_max(),
                   context_->demand_list().TopSum(options.k));
  EXPECT_DOUBLE_EQ(context_->lambda_max(),
                   context_->increment_list().TopSum(options.k));
  EXPECT_GT(context_->d_max(), 0.0);
  EXPECT_GT(context_->lambda_max(), 0.0);
}

TEST_F(PlanningContextTest, ObjectiveIsWeightedSum) {
  const double o = context_->Objective(context_->d_max() / 2,
                                       context_->lambda_max() / 2);
  EXPECT_NEAR(o, 0.5, 1e-12);
  // w = 0.5: swapping demand and connectivity magnitude keeps the value.
  EXPECT_NEAR(context_->Objective(context_->d_max(), 0.0),
              context_->Objective(0.0, context_->lambda_max()), 1e-12);
}

TEST_F(PlanningContextTest, ObjectiveListMatchesEquation11) {
  const demand::RankedList objective_list = context_->BuildObjectiveList();
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    const double expected = context_->Objective(
        context_->universe().edge(e).demand, context_->increments()[e]);
    EXPECT_EQ(objective_list.ValueOf(e), expected);
  }
  // Each call builds the same list.
  const demand::RankedList again = context_->BuildObjectiveList();
  for (int rank = 0; rank < again.size(); ++rank) {
    ASSERT_EQ(again.EdgeAtRank(rank), objective_list.EdgeAtRank(rank));
  }
}

TEST_F(PlanningContextTest, BaseLambdaIsThePrecomputeAnchor) {
  EXPECT_EQ(context_->base_lambda(),
            std::log(context_->SharePrecompute()->base_trace /
                     dataset_->transit.num_stops()));
}

// One anchor: a one-edge path's online increment is its Delta(e), bit for
// bit, so online ETA compares linearly scored seeds and expansions on one
// scale.
TEST_F(PlanningContextTest, OneEdgeOnlineIncrementEqualsDeltaE) {
  int checked = 0;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (!context_->universe().edge(e).is_new) continue;
    EXPECT_EQ(context_->OnlineConnectivityIncrement({e}),
              context_->increments()[e])
        << "edge " << e;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// TraceIncrement reads a path's first term from the precompute instead of
// solving it; that is sound only because the precompute's Delta tr(e) is
// the unstaged solve on the same adjacency, bit for bit. Later terms are
// solved, one LocalTraceIncrement call each.
TEST_F(PlanningContextTest, FirstTraceTermIsThePrecomputesSolve) {
  const std::vector<double>& trace =
      context_->SharePrecompute()->trace_increments;
  std::vector<int> new_edges;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (!context_->universe().edge(e).is_new) continue;
    new_edges.push_back(e);
    int solves = 0;
    EXPECT_EQ(context_->EdgeTraceIncrement({}, e, &solves), trace[e])
        << "edge " << e;
    EXPECT_EQ(solves, 1);
    EXPECT_EQ(context_->TraceIncrement({e}, &solves), trace[e]);
    EXPECT_EQ(solves, 1) << "a one-edge path solves nothing";
  }
  ASSERT_GE(new_edges.size(), 2u);
  const int first = new_edges.front();
  const int second = new_edges.back();
  int solves = 0;
  const double second_term =
      context_->EdgeTraceIncrement({first}, second, &solves);
  EXPECT_EQ(context_->TraceIncrement({first, second}, &solves),
            0.0 + trace[first] + second_term);
  EXPECT_EQ(solves, 2);
}

TEST_F(PlanningContextTest, OnlineIncrementOfEmptyPathIsZero) {
  EXPECT_DOUBLE_EQ(context_->OnlineConnectivityIncrement({}), 0.0);
}

TEST_F(PlanningContextTest, OnlineIncrementOfExistingEdgesIsZero) {
  std::vector<int> existing;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (!context_->universe().edge(e).is_new) {
      existing.push_back(e);
      if (existing.size() == 3) break;
    }
  }
  EXPECT_DOUBLE_EQ(context_->OnlineConnectivityIncrement(existing), 0.0);
}

TEST_F(PlanningContextTest, OnlineIncrementPositiveForNewEdges) {
  std::vector<int> new_edges;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (context_->universe().edge(e).is_new) {
      new_edges.push_back(e);
      if (new_edges.size() == 3) break;
    }
  }
  ASSERT_FALSE(new_edges.empty());
  EXPECT_GT(context_->OnlineConnectivityIncrement(new_edges), 0.0);
}

TEST_F(PlanningContextTest, OnlineIncrementIsRepeatable) {
  std::vector<int> new_edges;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (context_->universe().edge(e).is_new) {
      new_edges.push_back(e);
      if (new_edges.size() == 2) break;
    }
  }
  const double first = context_->OnlineConnectivityIncrement(new_edges);
  const double second = context_->OnlineConnectivityIncrement(new_edges);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST_F(PlanningContextTest, LinearIncrementSumsPrecomputedValues) {
  std::vector<int> edges = {0};
  if (context_->universe().num_edges() > 1) edges.push_back(1);
  double expected = 0.0;
  for (int e : edges) expected += context_->increments()[e];
  EXPECT_DOUBLE_EQ(context_->LinearConnectivityIncrement(edges), expected);
}

TEST_F(PlanningContextTest, PathBoundDominatesOnlineIncrements) {
  // Lemma 4: no route of at most k edges gains more connectivity than
  // PathConnectivityIncrementBound(k). Check it, with no slack, against
  // the increments both search modes actually report.
  for (int k : {2, 4, 8, 12}) {
    for (double w : {0.0, 0.3, 0.7}) {
      CtBusOptions options = FastOptions();
      options.k = k;
      options.w = w;
      options.max_iterations = 40;  // online search is the expensive mode
      const PlanningContext ctx =
          PlanningContext::Build(context_->base(), options);
      const double bound = ctx.PathConnectivityIncrementBound(k);
      EXPECT_GT(bound, 0.0);
      for (SearchMode mode : {SearchMode::kOnline, SearchMode::kPrecomputed}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " w=" << w << " mode="
                     << (mode == SearchMode::kOnline ? "online" : "pre"));
        const PlanResult result = RunEta(&ctx, mode);
        ASSERT_TRUE(result.found);
        EXPECT_GE(bound, result.connectivity_increment);
      }
    }
  }
}

TEST_F(PlanningContextTest, PrecomputeStatsPopulated) {
  const auto& stats = context_->precompute_stats();
  EXPECT_EQ(stats.num_new_edges, context_->universe().num_new_edges());
  EXPECT_GE(stats.universe_seconds, 0.0);
  EXPECT_GE(stats.increments_seconds, 0.0);
}

TEST_F(PlanningContextTest, SpectralRadiusCapFeedsPathBound) {
  const PlanningBase& base = *context_->base();
  EXPECT_EQ(base.spectral_radius_cap(), SpectralRadiusCap(base.adjacency()));
  const int n = context_->transit().num_stops();
  double previous = 0.0;
  for (int k = 1; k <= 30; ++k) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const std::vector<double> capped((k + 1) / 2, base.spectral_radius_cap());
    const double bound = context_->PathConnectivityIncrementBound(k);
    EXPECT_EQ(bound, connectivity::PathUpperBound(base.base_lambda(), capped,
                                                  k, n) -
                         base.base_lambda());
    EXPECT_GE(bound, previous);  // a longer path may gain more
    previous = bound;
  }
}

/// Eigenvalues of `a`, descending, from the dense solver, each lowered by
/// n * DBL_EPSILON * ||A||_inf: a backward-stable solve can land a few ulps
/// of ||A|| above the true eigenvalue (midtown's lambda_1 comes out one ulp
/// above the certified cap), and a certified bound need not cover that.
std::vector<double> DenseDescending(const linalg::SymmetricSparseMatrix& a) {
  std::vector<double> values =
      linalg::SymmetricEigenvalues(linalg::DenseMatrix::FromSparse(a));
  double norm = 0.0;
  for (int u = 0; u < a.dim(); ++u) {
    double row = 0.0;
    for (const auto& entry : a.Row(u)) row += std::abs(entry.value);
    norm = std::max(norm, row);
  }
  const double slack = a.dim() * DBL_EPSILON * norm;
  for (double& value : values) value -= slack;
  return {values.rbegin(), values.rend()};
}

/// A lower bound on lambda_1 of a nonnegative `a`, sharper than the dense
/// solve: the Rayleigh quotient x^T A x / x^T x <= lambda_1 of 2000 power
/// iterations, accumulated in long double and lowered by its own rounding
/// bound. Once the iteration converges it sits a fraction of a double ulp
/// below lambda_1, so a cap that skipped its outward rounding (midtown's
/// lands 4e-17 below lambda_1) compares below it in long double.
long double ExtendedPrecisionLowerBound(
    const linalg::SymmetricSparseMatrix& a) {
  const int n = a.dim();
  std::vector<long double> x(n, 1.0L);
  std::vector<long double> y(n);
  long double quotient = 0.0L;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    long double xy = 0.0L;
    long double xx = 0.0L;
    long double top = 0.0L;
    for (int u = 0; u < n; ++u) {
      long double sum = 0.0L;
      for (const auto& entry : a.Row(u)) sum += entry.value * x[entry.col];
      xy += x[u] * sum;
      xx += x[u] * x[u];
      y[u] = sum + x[u];
      top = std::max(top, y[u]);
    }
    quotient = xy / xx;
    for (int u = 0; u < n; ++u) x[u] = y[u] / top;
  }
  return quotient * (1.0L - 4 * n * LDBL_EPSILON);
}

/// Lemma 4 on the dense-exact eigenvalues is the value the certified bound
/// must never undercut, at every k.
void ExpectPathBoundCertified(const PlanningContext& context) {
  const PlanningBase& base = *context.base();
  const std::vector<double> exact = DenseDescending(base.adjacency());
  ASSERT_FALSE(exact.empty());
  EXPECT_GE(base.spectral_radius_cap(), exact.front());
  EXPECT_GE(static_cast<long double>(base.spectral_radius_cap()),
            ExtendedPrecisionLowerBound(base.adjacency()));
  for (int k : {2, 4, 8, 12, 30}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const double lemma4 =
        connectivity::PathUpperBound(base.base_lambda(), exact, k,
                                     base.adjacency().dim()) -
        base.base_lambda();
    EXPECT_GE(context.PathConnectivityIncrementBound(k), lemma4);
  }
}

TEST_F(PlanningContextTest, PathBoundIsCertifiedAgainstDenseEigenvalues) {
  ExpectPathBoundCertified(*context_);
}

TEST(PlanningBoundTest, PathBoundIsCertifiedOnChicago) {
  const gen::Dataset city = gen::MakeChicagoLike(0.5);
  const PlanningContext context =
      PlanningContext::Build(city.road, city.transit, FastOptions());
  ExpectPathBoundCertified(context);
}

TEST_F(PlanningContextTest, PathBoundIgnoresTheOnlineEstimatorSeed) {
  CtBusOptions first = FastOptions();
  CtBusOptions second = FastOptions();
  second.online_estimator.seed = first.online_estimator.seed + 1000;
  const PlanningContext a = PlanningContext::BuildWithPrecompute(
      dataset_->road, dataset_->transit, first, context_->SharePrecompute());
  const PlanningContext b = PlanningContext::BuildWithPrecompute(
      dataset_->road, dataset_->transit, second, context_->SharePrecompute());
  ASSERT_NE(a.base(), b.base());
  EXPECT_EQ(a.base()->spectral_radius_cap(), b.base()->spectral_radius_cap());
  for (int k : {2, 4, 8, 12, 30}) {
    EXPECT_EQ(a.PathConnectivityIncrementBound(k),
              b.PathConnectivityIncrementBound(k))
        << "k=" << k;
  }
}

/// Pairs of the path over stops first, first + 1, ..., first + stops - 1.
std::vector<std::pair<int, int>> PathPairs(int first, int stops) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i + 1 < stops; ++i) {
    pairs.emplace_back(first + i, first + i + 1);
  }
  return pairs;
}

/// Pairs of the star with centre `centre` and `leaves` leaves after it.
std::vector<std::pair<int, int>> StarPairs(int centre, int leaves) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 1; i <= leaves; ++i) pairs.emplace_back(centre, centre + i);
  return pairs;
}

TEST(SpectralRadiusCapTest, BoundsKnownSpectraTightly) {
  const double pi = std::acos(-1.0);
  struct Case {
    const char* name;
    linalg::SymmetricSparseMatrix matrix;
    double lambda_1;
  };
  std::vector<std::pair<int, int>> cycle8 = PathPairs(0, 8);
  cycle8.emplace_back(7, 0);
  std::vector<std::pair<int, int>> cycle7 = PathPairs(0, 7);
  cycle7.emplace_back(6, 0);
  // P_6 on stops 0-5, K_{1,3} on stops 6-9, stop 10 isolated.
  std::vector<std::pair<int, int>> parts = PathPairs(0, 6);
  for (const auto& pair : StarPairs(6, 3)) parts.push_back(pair);
  const std::vector<Case> cases = {
      {"path P_8", testutil::FromPairs(8, PathPairs(0, 8)),
       2.0 * std::cos(pi / 9.0)},
      {"path P_2", testutil::FromPairs(2, PathPairs(0, 2)), 1.0},
      {"star K_{1,5}", testutil::FromPairs(6, StarPairs(0, 5)),
       std::sqrt(5.0)},
      {"even cycle C_8", testutil::FromPairs(8, cycle8), 2.0},
      {"odd cycle C_7", testutil::FromPairs(7, cycle7), 2.0},
      {"P_6 + K_{1,3} + an isolated stop", testutil::FromPairs(11, parts),
       2.0 * std::cos(pi / 7.0)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const double cap = SpectralRadiusCap(c.matrix);
    EXPECT_TRUE(std::isfinite(cap));
    EXPECT_GE(cap, c.lambda_1);
    EXPECT_LE(cap, c.lambda_1 * (1.0 + 1e-6));
  }
}

TEST(SpectralRadiusCapTest, EdgelessAndEmptyGraphsCapAtZero) {
  for (int n : {0, 1, 5}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const double cap = SpectralRadiusCap(testutil::FromPairs(n, {}));
    EXPECT_GE(cap, 0.0);
    EXPECT_LE(cap, std::numeric_limits<double>::denorm_min());
  }
}

TEST(SpectralRadiusCapTest, BoundsRandomGraphsAtTheIterationCap) {
  // Sparse random graphs with many components and isolated stops: the
  // iteration need not converge, the cap must still hold.
  linalg::Rng rng(17);
  for (double degree : {0.8, 2.0, 4.0}) {
    SCOPED_TRACE(::testing::Message() << "degree=" << degree);
    const linalg::SymmetricSparseMatrix a =
        testutil::RandomGraph(300, degree, &rng);
    const std::vector<double> exact = DenseDescending(a);
    const double cap = SpectralRadiusCap(a);
    EXPECT_TRUE(std::isfinite(cap));
    EXPECT_GE(cap, exact.front());
  }
}

/// The first three new edges by Delta(e) rank: a fixed route whose online
/// increment telescopes over three local terms.
std::vector<int> TopNewEdges(const PlanningContext& context) {
  std::vector<int> edges;
  for (int rank = 0; rank < context.increment_list().size(); ++rank) {
    const int e = context.increment_list().EdgeAtRank(rank);
    if (context.universe().edge(e).is_new) edges.push_back(e);
    if (edges.size() == 3) break;
  }
  return edges;
}

/// Exact equality on purpose, doubles included: a context over a shared
/// base must reproduce a per-request build to the last bit.
void ExpectPlansIdentical(const PlanResult& a, const PlanResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.path.edges(), b.path.edges());
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST_F(PlanningContextTest, SharedBaseIsBitIdenticalToPerRequestBuild) {
  const std::shared_ptr<const Precompute> precompute =
      context_->SharePrecompute();
  const std::shared_ptr<const PlanningBase> base =
      PlanningBase::Build(dataset_->road, dataset_->transit, precompute);
  const std::vector<int> route = TopNewEdges(*context_);
  ASSERT_FALSE(route.empty());
  for (int k : {4, 8, 12}) {
    for (double w : {0.3, 0.7}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " w=" << w);
      CtBusOptions options = FastOptions();
      options.k = k;
      options.w = w;
      const PlanningContext shared = PlanningContext::Build(base, options);
      const PlanningContext fresh = PlanningContext::BuildWithPrecompute(
          dataset_->road, dataset_->transit, options, precompute);
      EXPECT_EQ(shared.base(), base);
      EXPECT_EQ(shared.base_lambda(), fresh.base_lambda());
      EXPECT_EQ(shared.d_max(), fresh.d_max());
      EXPECT_EQ(shared.lambda_max(), fresh.lambda_max());
      const demand::RankedList shared_list = shared.BuildObjectiveList();
      const demand::RankedList fresh_list = fresh.BuildObjectiveList();
      for (int e = 0; e < shared.universe().num_edges(); ++e) {
        ASSERT_EQ(shared_list.ValueOf(e), fresh_list.ValueOf(e))
            << "edge " << e;
      }
      EXPECT_EQ(shared.base()->spectral_radius_cap(),
                fresh.base()->spectral_radius_cap());
      EXPECT_EQ(shared.PathConnectivityIncrementBound(k),
                fresh.PathConnectivityIncrementBound(k));
      EXPECT_EQ(shared.OnlineConnectivityIncrement(route),
                fresh.OnlineConnectivityIncrement(route));
    }
  }
}

TEST_F(PlanningContextTest, PlannersAreBitIdenticalOnSharedBase) {
  CtBusOptions options = FastOptions();
  options.max_iterations = 40;  // online search is the expensive mode
  const std::shared_ptr<const PlanningBase> base = PlanningBase::Build(
      dataset_->road, dataset_->transit, context_->SharePrecompute());
  const PlanningContext shared = PlanningContext::Build(base, options);
  const PlanningContext fresh = PlanningContext::BuildWithPrecompute(
      dataset_->road, dataset_->transit, options, context_->SharePrecompute());
  for (SearchMode mode : {SearchMode::kOnline, SearchMode::kPrecomputed}) {
    const PlanResult a = RunEta(&shared, mode);
    ASSERT_TRUE(a.found);
    ExpectPlansIdentical(a, RunEta(&fresh, mode));
  }
  const PlanResult a = RunVkTsp(&shared);
  ASSERT_TRUE(a.found);
  ExpectPlansIdentical(a, RunVkTsp(&fresh));
}

TEST_F(PlanningContextTest, ContextBytesIncludeItsBase) {
  const std::shared_ptr<const PlanningBase>& base = context_->base();
  EXPECT_GT(base->ApproxBytes(), context_->SharePrecompute()->ApproxBytes());
  // The context holds no ranked list of its own: only its options and
  // constants on top of the base.
  EXPECT_EQ(context_->ApproxBytes(),
            sizeof(PlanningContext) + base->ApproxBytes());
}

}  // namespace
}  // namespace ctbus::core
