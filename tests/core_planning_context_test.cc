#include "core/planning_context.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/baselines.h"
#include "core/eta.h"
#include "gen/datasets.h"

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

TEST_F(PlanningContextTest, TopEigenvaluesDescending) {
  const std::vector<double> top = context_->top_eigenvalues();
  ASSERT_FALSE(top.empty());
  for (std::size_t i = 0; i + 1 < top.size(); ++i) {
    EXPECT_GE(top[i], top[i + 1] - 1e-9);
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
      EXPECT_EQ(shared.top_eigenvalues(), fresh.top_eigenvalues());
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
