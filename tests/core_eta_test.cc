#include "core/eta.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "connectivity/natural_connectivity.h"
#include "core/baselines.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"
#include "io/network_io.h"
#include "tests/matrix_builders.h"

#ifndef CTBUS_TEST_DATA_DIR
#define CTBUS_TEST_DATA_DIR "tests/data"
#endif

namespace ctbus::core {
namespace {

CtBusOptions FastOptions() {
  CtBusOptions options;
  options.k = 8;
  options.max_turns = 3;
  options.seed_count = 200;
  options.max_iterations = 300;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

// Route feasibility invariants shared by all planner tests.
void ExpectFeasible(const PlanningContext& ctx, const PlanResult& result) {
  ASSERT_TRUE(result.found);
  const auto& path = result.path;
  ASSERT_GE(path.num_edges(), 1);
  EXPECT_LE(path.num_edges(), ctx.options().k);
  EXPECT_LE(path.turns(), ctx.options().max_turns);
  // Stop sequence is chain-consistent with the edges.
  ASSERT_EQ(path.stops().size(),
            static_cast<std::size_t>(path.num_edges()) + 1);
  for (int i = 0; i < path.num_edges(); ++i) {
    const auto& edge = ctx.universe().edge(path.edges()[i]);
    const int a = path.stops()[i];
    const int b = path.stops()[i + 1];
    EXPECT_TRUE((edge.u == a && edge.v == b) || (edge.u == b && edge.v == a));
  }
  // Circle-free: no stop repeats except a closing loop at the ends.
  std::unordered_set<int> seen;
  for (std::size_t i = 0; i < path.stops().size(); ++i) {
    const int s = path.stops()[i];
    const bool closing =
        i + 1 == path.stops().size() && s == path.stops().front();
    if (!closing) {
      EXPECT_TRUE(seen.insert(s).second) << "repeated stop " << s;
    }
  }
  // No universe edge repeats.
  std::unordered_set<int> edge_seen;
  for (int e : path.edges()) {
    EXPECT_TRUE(edge_seen.insert(e).second) << "repeated edge " << e;
  }
  // Demand bookkeeping is consistent.
  double demand = 0.0;
  for (int e : path.edges()) demand += ctx.universe().edge(e).demand;
  EXPECT_NEAR(result.demand, demand, 1e-9);
}

class EtaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeMidtown());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static gen::Dataset* dataset_;
};

gen::Dataset* EtaTest::dataset_ = nullptr;

TEST_F(EtaTest, PrecomputedModeFindsFeasibleRoute) {
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    FastOptions());
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ExpectFeasible(ctx, result);
  EXPECT_GT(result.objective, 0.0);
  EXPECT_GT(result.iterations, 0);
}

TEST_F(EtaTest, OnlineModeFindsFeasibleRoute) {
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    FastOptions());
  const PlanResult result = RunEta(&ctx, SearchMode::kOnline);
  ExpectFeasible(ctx, result);
  EXPECT_GT(result.objective, 0.0);
}

TEST_F(EtaTest, ModesAgreeWithinTolerance) {
  // ETA-Pre must be competitive with online ETA (Table 6's message).
  auto ctx1 = PlanningContext::Build(dataset_->road, dataset_->transit,
                                     FastOptions());
  const PlanResult online = RunEta(&ctx1, SearchMode::kOnline);
  auto ctx2 = PlanningContext::Build(dataset_->road, dataset_->transit,
                                     FastOptions());
  const PlanResult pre = RunEta(&ctx2, SearchMode::kPrecomputed);
  ASSERT_TRUE(online.found);
  ASSERT_TRUE(pre.found);
  EXPECT_GT(pre.objective, 0.25 * online.objective);
}

TEST_F(EtaTest, DeterministicAcrossRuns) {
  auto ctx1 = PlanningContext::Build(dataset_->road, dataset_->transit,
                                     FastOptions());
  auto ctx2 = PlanningContext::Build(dataset_->road, dataset_->transit,
                                     FastOptions());
  const PlanResult a = RunEta(&ctx1, SearchMode::kPrecomputed);
  const PlanResult b = RunEta(&ctx2, SearchMode::kPrecomputed);
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.path.edges(), b.path.edges());
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST_F(EtaTest, RespectsMaxIterations) {
  CtBusOptions options = FastOptions();
  options.max_iterations = 5;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  EXPECT_LE(result.iterations, 5);
}

TEST_F(EtaTest, KOneYieldsSingleEdgeRoute) {
  CtBusOptions options = FastOptions();
  options.k = 1;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.path.num_edges(), 1);
}

TEST_F(EtaTest, LargerKDoesNotReduceRawObjectiveParts) {
  // With bigger k the planner may add more edges; the raw demand of the
  // result should not shrink (normalized objective can, per Figure 10's
  // normalization discussion).
  CtBusOptions small = FastOptions();
  small.k = 3;
  CtBusOptions large = FastOptions();
  large.k = 10;
  auto ctx_small =
      PlanningContext::Build(dataset_->road, dataset_->transit, small);
  auto ctx_large =
      PlanningContext::Build(dataset_->road, dataset_->transit, large);
  const PlanResult rs = RunEta(&ctx_small, SearchMode::kPrecomputed);
  const PlanResult rl = RunEta(&ctx_large, SearchMode::kPrecomputed);
  ASSERT_TRUE(rs.found);
  ASSERT_TRUE(rl.found);
  EXPECT_GE(rl.path.num_edges(), rs.path.num_edges());
}

TEST_F(EtaTest, TurnThresholdBindsRoutes) {
  CtBusOptions strict = FastOptions();
  strict.max_turns = 0;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    strict);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  if (result.found) {
    EXPECT_EQ(result.path.turns(), 0);
  }
}

TEST_F(EtaTest, TraceRecordsMonotoneObjective) {
  CtBusOptions options = FastOptions();
  options.trace_every = 1;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LE(result.trace[i - 1].second, result.trace[i].second + 1e-12);
    EXPECT_LT(result.trace[i - 1].first, result.trace[i].first);
  }
}

TEST_F(EtaTest, AllNeighborVariantAlsoFeasible) {
  CtBusOptions options = FastOptions();
  options.best_neighbor_only = false;  // ETA-AN
  options.max_iterations = 100;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  if (result.found) ExpectFeasible(ctx, result);
}

TEST_F(EtaTest, NoDominationTableVariantAlsoFeasible) {
  CtBusOptions options = FastOptions();
  options.use_domination_table = false;  // ETA-DT
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  ExpectFeasible(ctx, result);
}

TEST_F(EtaTest, SeedAllEdgesVariantAlsoFeasible) {
  CtBusOptions options = FastOptions();
  options.seed_all_edges = true;  // ETA-ALL
  options.max_iterations = 100;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  ExpectFeasible(ctx, result);
}

TEST_F(EtaTest, NewEdgesOnlyRestrictsRoute) {
  CtBusOptions options = FastOptions();
  options.new_edges_only = true;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  for (int e : result.path.edges()) {
    EXPECT_TRUE(ctx.universe().edge(e).is_new);
  }
}

TEST_F(EtaTest, WeightOneIgnoresConnectivityInObjective) {
  CtBusOptions options = FastOptions();
  options.w = 1.0;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  EXPECT_NEAR(result.objective, result.demand / ctx.d_max(), 1e-9);
}

// Regression for the unsound "both ends are equivalent" shortcut that
// ExpandAllNeighbors used to take on 1-edge paths. Candidate edges are
// stored with u < v, so a seed (m, v) only ever END-extends at v — and a
// 2-edge path whose two edges share their *lower* endpoint m could never
// be generated from any seed: it requires a begin-side extension at m.
// This network makes exactly that path the optimum:
//
//       x(2) ---- m(0) ---- v(1)        far-away existing route 3——4
//
// Both candidates are (0,1) and (0,2): each seed's end stop is 1 or 2,
// where no other edge is incident, so the winning route 1–0–2 is only
// reachable by extending a seed at its begin stop 0.
TEST(EtaAllNeighborsTest, ExpandsBeginSideOfSingleEdgeSeeds) {
  graph::Graph g;
  g.AddVertex({0.0, 0.0});      // m
  g.AddVertex({60.0, 0.0});     // v
  g.AddVertex({-60.0, 0.0});    // x
  g.AddVertex({10000.0, 0.0});  // existing-route stops, far from the rest
  g.AddVertex({10100.0, 0.0});
  const int road_mv = g.AddEdge(0, 1, 60.0);
  const int road_mx = g.AddEdge(0, 2, 60.0);
  const int road_far = g.AddEdge(3, 4, 100.0);

  graph::RoadNetwork road(std::move(g));
  road.AddTripCount(road_mv, 5);  // demand 5 * 60 = 300
  road.AddTripCount(road_mx, 3);  // demand 3 * 60 = 180

  graph::TransitNetwork transit;
  for (int s = 0; s < 5; ++s) {
    transit.AddStop(s, road.graph().position(s));
  }
  // One existing route keeps the base adjacency non-empty; it is too far
  // away to interact with the candidates.
  transit.AddEdge(3, 4, 100.0, {road_far});
  transit.AddRoute({3, 4});

  CtBusOptions options = FastOptions();
  options.k = 2;
  options.w = 1.0;  // pure demand: the objective is easy to reason about
  options.tau = 100.0;  // m–v and m–x qualify (60 m); v–x (120 m) does not
  options.best_neighbor_only = false;  // ETA-AN

  const auto ctx = PlanningContext::Build(road, transit, options);
  ASSERT_EQ(ctx.universe().num_new_edges(), 2);

  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  ExpectFeasible(ctx, result);
  // The optimum is the 2-edge path v–m–x (demand 480); without begin-side
  // expansion of 1-edge paths the search tops out at one edge (demand 300).
  EXPECT_EQ(result.path.num_edges(), 2);
  EXPECT_NEAR(result.demand, 480.0, 1e-9);
  EXPECT_EQ(result.path.stops()[1], 0);  // the shared lower endpoint m
}

TEST_F(EtaTest, WeightZeroMaximizesConnectivityOnly) {
  CtBusOptions options = FastOptions();
  options.w = 0.0;
  auto ctx = PlanningContext::Build(dataset_->road, dataset_->transit,
                                    options);
  const PlanResult result = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(result.found);
  EXPECT_NEAR(result.objective,
              result.connectivity_increment / ctx.lambda_max(), 1e-9);
  // A pure-connectivity route must contain new edges.
  EXPECT_GT(result.path.num_new_edges(), 0);
}

double ExactTraceExp(const linalg::SymmetricSparseMatrix& a) {
  return a.dim() * std::exp(connectivity::NaturalConnectivityExact(a));
}

// The golden trace (tests/data/golden_grid.trace) plans the grid fixture
// at the default tau of 500 m, and its stops are 800 m apart, so it has no
// candidate edges and cannot see the connectivity term. At tau = 900 m it
// can: both modes must report the route's increment as
// log1p(exact Delta tr / tr_0), with Delta tr from dense eigensolves and
// tr_0 the precompute's base_trace, within the local-increment
// kernel test's telescoped tolerance (2e-5 of tr(e^A)).
TEST(EtaGridFixtureTest, ReportedIncrementMatchesDenseExactAtTau900) {
  const std::string dir = CTBUS_TEST_DATA_DIR;
  const auto road = io::LoadRoadNetwork(dir + "/grid_road.tsv");
  const auto transit = io::LoadTransitNetwork(dir + "/grid_transit.tsv");
  ASSERT_TRUE(road.has_value());
  ASSERT_TRUE(transit.has_value());
  CtBusOptions options = FastOptions();
  options.k = 6;
  options.tau = 900.0;
  options.w = 0.3;
  const auto ctx = PlanningContext::Build(*road, *transit, options);
  ASSERT_GT(ctx.universe().num_new_edges(), 0);

  const linalg::SymmetricSparseMatrix base = transit->AdjacencyMatrix();
  const double base_trace = ExactTraceExp(base);
  const double anchor = ctx.SharePrecompute()->base_trace;
  for (const SearchMode mode : {SearchMode::kOnline, SearchMode::kPrecomputed}) {
    SCOPED_TRACE(mode == SearchMode::kOnline ? "online" : "precomputed");
    const PlanResult result = RunEta(&ctx, mode);
    ExpectFeasible(ctx, result);
    ASSERT_GT(result.path.num_new_edges(), 0);
    std::vector<std::pair<int, int>> added;
    for (int e : result.path.edges()) {
      const PlannableEdge& edge = ctx.universe().edge(e);
      if (edge.is_new) added.emplace_back(edge.u, edge.v);
    }
    const double exact_trace_increment =
        ExactTraceExp(testutil::WithEdges(base, added)) - base_trace;
    EXPECT_NEAR(result.connectivity_increment,
                std::log1p(exact_trace_increment / anchor),
                2e-5 * base_trace / anchor);
    EXPECT_NEAR(result.objective,
                ctx.Objective(result.demand, result.connectivity_increment),
                1e-12);
  }
}


// Search results on ChicagoLike at scale 0.5, recorded before the search
// stopped copying candidate paths (sorted-vector path state, a vector heap
// and seeds that build their path only when popped). Expansion order, queue
// tie-breaking and the summation order of the objective all show in these,
// so the doubles are compared exactly. The objectives were re-recorded once
// when the local trace increments moved to the eigenvalues-only QL: every
// edge list and iteration count stayed, and no objective moved by more than
// 1.4e-14 relative.
enum class PinnedPlanner { kEtaPre, kVkTsp, kEtaOnline, kEtaAn };

struct PinnedRun {
  PinnedPlanner planner;
  int k;
  std::vector<int> edges;
  int iterations;
  double objective;
};

CtBusOptions PinnedOptions(const PinnedRun& run) {
  CtBusOptions options;
  options.k = run.k;
  options.w = 0.5;
  options.max_iterations = run.planner == PinnedPlanner::kEtaOnline ? 2 : 500;
  options.best_neighbor_only = run.planner != PinnedPlanner::kEtaAn;
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/11};
  options.online_estimator = {/*probes=*/50, /*lanczos_steps=*/10,
                              /*seed=*/1};
  return options;
}

TEST(EtaPinnedResultsTest, ChicagoHalfScaleSearchesAreUnchanged) {
  using P = PinnedPlanner;
  const std::vector<PinnedRun> pinned = {
      {P::kEtaPre, 4, {1385, 1384, 698, 689}, 500, 0.61515657503213927},
      {P::kEtaPre, 8, {1393, 1395, 2248, 2318, 2344}, 500,
       0.39950438867892435},
      {P::kEtaPre, 12, {910, 1355, 1363, 1385, 1054}, 500,
       0.29163041431177478},
      {P::kVkTsp, 4, {1395, 2248, 2318, 2344}, 500, 0.60756864544861655},
      {P::kVkTsp, 8, {695, 686, 1395, 2248, 2318}, 500, 0.38674778252898978},
      {P::kVkTsp, 12, {1025, 695, 686, 1395, 2248, 2318, 2344}, 500,
       0.36624447297233964},
      {P::kEtaOnline, 4, {1393, 1395, 1370}, 2, 0.4802501271889339},
      {P::kEtaOnline, 8, {1393, 1390, 1368}, 2, 0.29411371049400581},
      {P::kEtaOnline, 12, {1393, 1390, 1368}, 2, 0.20546241356398487},
      {P::kEtaAn, 4, {1368, 1390, 686, 695}, 500, 0.68326979845352698},
      {P::kEtaAn, 8, {1368, 1390, 686, 695}, 500, 0.36389899450787438},
      {P::kEtaAn, 12, {1368, 1390, 686, 695, 1025}, 500,
       0.2967841624461986},
  };
  const gen::Dataset city = gen::MakeChicagoLike(0.5);
  const auto precompute = std::make_shared<const Precompute>(
      PlanningContext::RunPrecompute(city.road, city.transit,
                                     PinnedOptions(pinned[0])));
  const auto base = PlanningBase::Build(city.road, city.transit, precompute);
  for (const PinnedRun& run : pinned) {
    SCOPED_TRACE("planner " + std::to_string(static_cast<int>(run.planner)) +
                 " k " + std::to_string(run.k));
    const PlanningContext ctx = PlanningContext::Build(base, PinnedOptions(run));
    const PlanResult result =
        run.planner == P::kVkTsp
            ? RunVkTsp(&ctx)
            : RunEta(&ctx, run.planner == P::kEtaOnline
                               ? SearchMode::kOnline
                               : SearchMode::kPrecomputed);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.path.edges(), run.edges);
    EXPECT_EQ(result.iterations, run.iterations);
    EXPECT_EQ(result.objective, run.objective);
  }
}

// FNV-1a-64 over the eight little-endian bytes of `value`.
std::uint64_t FoldFnv(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A hit-mix-shaped sweep beyond the pinned rows: ETA-Pre and VK-TSP at
// it_max 500 over every k in 4..12 and w in 0.3..0.7 on one shared base,
// folded into one FNV-1a-64 value of (route edges, iterations, objective
// bits), recorded from the search whose heap held whole entries and whose
// context held L_e, and re-recorded when the eigenvalues-only QL moved the
// objectives' last bits (routes and iterations unchanged). Queue order,
// seeding and summation order all show here.
TEST(EtaPinnedResultsTest, ChicagoHalfScaleHitMixSweepIsUnchanged) {
  constexpr std::uint64_t kExpectedFold = 0xc28148dcd6663033ULL;
  const double weights[] = {0.3, 0.4, 0.5, 0.6, 0.7};
  const gen::Dataset city = gen::MakeChicagoLike(0.5);
  PinnedRun shape{PinnedPlanner::kEtaPre, 4, {}, 0, 0.0};
  const auto precompute = std::make_shared<const Precompute>(
      PlanningContext::RunPrecompute(city.road, city.transit,
                                     PinnedOptions(shape)));
  const auto base = PlanningBase::Build(city.road, city.transit, precompute);
  std::uint64_t fold = 0xcbf29ce484222325ULL;
  for (const PinnedPlanner planner :
       {PinnedPlanner::kEtaPre, PinnedPlanner::kVkTsp}) {
    for (int k = 4; k <= 12; ++k) {
      for (const double w : weights) {
        shape.planner = planner;
        shape.k = k;
        CtBusOptions options = PinnedOptions(shape);
        options.w = w;
        const PlanningContext ctx = PlanningContext::Build(base, options);
        const PlanResult result =
            planner == PinnedPlanner::kVkTsp
                ? RunVkTsp(&ctx)
                : RunEta(&ctx, SearchMode::kPrecomputed);
        // Every allowed top-sn seed above the first incumbent is pushed.
        EXPECT_GE(result.seeds_pushed, 1) << "w " << w;
        EXPECT_LE(result.seeds_pushed, options.seed_count) << "w " << w;
        fold = FoldFnv(fold, result.path.edges().size());
        for (const int e : result.path.edges()) fold = FoldFnv(fold, e);
        fold = FoldFnv(fold, result.iterations);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &result.objective, sizeof(bits));
        fold = FoldFnv(fold, bits);
      }
    }
  }
  EXPECT_EQ(fold, kExpectedFold) << std::hex << "fold 0x" << fold;
}

}  // namespace
}  // namespace ctbus::core
