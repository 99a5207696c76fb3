// The precompute's staged-term memo (core/term_memo.h): its key and cap,
// and the promise that a search reads the same bits from it that it would
// solve. Every planner must return identical results on a cold and a warm
// memo (warmed by the same request or by others), searches sharing one
// memo at once must match a serial cold run at every fan-out width, a
// memo at its cap stops growing and keeps answering, and a telescoped sum
// whose later terms come back from the memo while the early ones solve
// must still be summed in path order. The TSan job runs this binary,
// repeated, to keep the shared memo race-free.
#include "core/term_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"

namespace ctbus::core {
namespace {

TEST(TermMemoTest, KeySortsStagedPairsAndOrientsEveryPair) {
  const TermMemo::Key key = TermMemo::MakeKey({{5, 2}, {1, 9}, {3, 4}}, 8, 7);
  const TermMemo::Key same = TermMemo::MakeKey({{4, 3}, {2, 5}, {9, 1}}, 7, 8);
  EXPECT_EQ(key, same);
  ASSERT_EQ(key.size(), 4u);
  EXPECT_TRUE(std::is_sorted(key.begin(), key.end() - 1));
  EXPECT_EQ(key.back(), (std::uint64_t{7} << 32) | 8);
  // The candidate is not one of the staged pairs: moving it changes the key.
  EXPECT_NE(TermMemo::MakeKey({{7, 8}, {1, 9}, {3, 4}}, 5, 2), key);
}

TEST(TermMemoTest, InsertStopsAtTheCapAndNeverEvicts) {
  const TermMemo memo;
  constexpr std::size_t kMaxPairs = 5;
  memo.Insert(TermMemo::MakeKey({{0, 1}}, 2, 3), 1.5, kMaxPairs);  // 2 pairs
  memo.Insert(TermMemo::MakeKey({{0, 1}}, 2, 3), 9.0, kMaxPairs);  // present
  memo.Insert(TermMemo::MakeKey({{0, 1}, {1, 2}}, 2, 4), 2.5, kMaxPairs);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.pairs(), 5u);
  memo.Insert(TermMemo::MakeKey({}, 6, 7), 3.5, kMaxPairs);  // full
  EXPECT_EQ(memo.size(), 2u);
  double value = 0.0;
  EXPECT_FALSE(memo.Find(TermMemo::MakeKey({}, 6, 7), &value));
  ASSERT_TRUE(memo.Find(TermMemo::MakeKey({{1, 0}}, 3, 2), &value));
  EXPECT_EQ(value, 1.5);  // the first value stays
  ASSERT_TRUE(memo.Find(TermMemo::MakeKey({{2, 1}, {0, 1}}, 4, 2), &value));
  EXPECT_EQ(value, 2.5);
  EXPECT_GE(TermMemo::CapacityBytes(kMaxPairs),
            kMaxPairs * (sizeof(std::uint64_t) + sizeof(double)));
}

TEST(TermMemoTest, CopiesStartEmptyAndAssignmentEmpties) {
  TermMemo memo;
  memo.Insert(TermMemo::MakeKey({{0, 1}}, 2, 3), 1.5, 10);
  const TermMemo copy(memo);
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_EQ(memo.size(), 1u);
  memo = copy;
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.pairs(), 0u);
}

/// Exact equality on purpose, doubles included: a memo read must be the
/// solve's bits. memo_hits is history and is not compared.
void ExpectResultsIdentical(const PlanResult& a, const PlanResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.path.edges(), b.path.edges());
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.seeds_pushed, b.seeds_pushed);
  EXPECT_EQ(a.local_solves, b.local_solves);
  EXPECT_EQ(a.trace, b.trace);
}

void ExpectGreedyIdentical(const ConnectivityFirstResult& a,
                           const ConnectivityFirstResult& b) {
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment);
}

enum class Search { kOnline, kAllNeighbors, kEtaPre, kVkTsp };

/// Perfbench's request shapes at a test's size: online ETA at it_max 2
/// over sn = 5000 seeds, ETA-AN at it_max 4, ETA-Pre and VK-TSP at 500.
CtBusOptions Options(Search search, int k, double w, int width) {
  CtBusOptions options;
  options.k = k;
  options.w = w;
  options.seed_count = 5000;
  options.max_iterations = 500;
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/11};
  options.precompute_threads = width;
  options.trace_every = 1;
  if (search == Search::kOnline) options.max_iterations = 2;
  if (search == Search::kAllNeighbors) {
    options.best_neighbor_only = false;
    options.seed_count = 200;
    options.max_iterations = 4;
  }
  return options;
}

PlanResult Plan(const std::shared_ptr<const PlanningBase>& base,
                Search search, int k, double w, int width = 1) {
  const PlanningContext ctx =
      PlanningContext::Build(base, Options(search, k, w, width));
  switch (search) {
    case Search::kOnline:
    case Search::kAllNeighbors:
      return RunEta(&ctx, SearchMode::kOnline);
    case Search::kEtaPre:
      return RunEta(&ctx, SearchMode::kPrecomputed);
    case Search::kVkTsp:
      return RunVkTsp(&ctx);
  }
  return {};
}

constexpr Search kSearches[] = {Search::kOnline, Search::kAllNeighbors,
                                Search::kEtaPre, Search::kVkTsp};

class TermMemoSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeChicagoLike(0.5));
    precompute_ = new Precompute(PlanningContext::RunPrecompute(
        dataset_->road, dataset_->transit,
        Options(Search::kOnline, 4, 0.5, 1)));
  }
  static void TearDownTestSuite() {
    delete precompute_;
    precompute_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  /// A base over a copy of the shared precompute: its tables, an empty
  /// memo.
  static std::shared_ptr<const PlanningBase> ColdBase() {
    return PlanningBase::Build(dataset_->road, dataset_->transit,
                               std::make_shared<const Precompute>(*precompute_));
  }

  static gen::Dataset* dataset_;
  static Precompute* precompute_;
};

gen::Dataset* TermMemoSearchTest::dataset_ = nullptr;
Precompute* TermMemoSearchTest::precompute_ = nullptr;

TEST_F(TermMemoSearchTest, ColdAndWarmMemosGiveIdenticalResults) {
  for (const Search search : kSearches) {
    SCOPED_TRACE(::testing::Message() << "search " << static_cast<int>(search));
    for (const int k : {4, 12}) {
      SCOPED_TRACE(::testing::Message() << "k " << k);
      const auto base = ColdBase();
      const PlanResult cold = Plan(base, search, k, 0.5);
      ASSERT_TRUE(cold.found);
      ASSERT_GT(cold.local_solves, 0);
      EXPECT_LT(cold.memo_hits, cold.local_solves);
      // The same request again reads every term its first run needed.
      const PlanResult warm = Plan(base, search, k, 0.5);
      ExpectResultsIdentical(warm, cold);
      EXPECT_EQ(warm.memo_hits, warm.local_solves);

      // A memo warmed by other requests (other k, w and planners) first.
      const auto other = ColdBase();
      for (const Search s : kSearches) {
        Plan(other, s, k == 4 ? 8 : 4, 0.35);
        Plan(other, s, k, 0.65);
      }
      ExpectResultsIdentical(Plan(other, search, k, 0.5), cold);
    }
  }
}

TEST_F(TermMemoSearchTest, ConnectivityFirstIsIdenticalOnAWarmMemo) {
  const auto base = ColdBase();
  const PlanningContext ctx =
      PlanningContext::Build(base, Options(Search::kEtaPre, 8, 0.5, 1));
  const ConnectivityFirstResult cold = RunConnectivityFirst(&ctx, 6);
  ASSERT_EQ(cold.edges.size(), 6u);
  EXPECT_GT(base->precompute()->term_memo.size(), 0u);
  ExpectGreedyIdentical(RunConnectivityFirst(&ctx, 6), cold);

  // Warmed by online searches whose terms share some staged sets.
  const auto other = ColdBase();
  for (const int k : {4, 8, 12}) Plan(other, Search::kOnline, k, 0.5);
  const PlanningContext other_ctx =
      PlanningContext::Build(other, Options(Search::kEtaPre, 8, 0.5, 1));
  ExpectGreedyIdentical(RunConnectivityFirst(&other_ctx, 6), cold);
}

TEST_F(TermMemoSearchTest, ConcurrentSearchesShareOneMemo) {
  // Serial, width 1, every request on its own cold memo: the reference.
  std::vector<PlanResult> serial;
  for (const Search search : kSearches) {
    serial.push_back(Plan(ColdBase(), search, 8, 0.5));
  }
  for (const int width : {1, 2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    // Two threads run every planner over one cold memo at once, in
    // opposite orders, so each reads terms the other is still solving.
    const auto base = ColdBase();
    std::vector<std::vector<PlanResult>> concurrent(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        std::vector<PlanResult>& results = concurrent[t];
        results.resize(std::size(kSearches));
        for (std::size_t i = 0; i < std::size(kSearches); ++i) {
          const std::size_t p = t == 0 ? i : std::size(kSearches) - 1 - i;
          results[p] = Plan(base, kSearches[p], 8, 0.5, width);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < 2; ++t) {
      for (std::size_t p = 0; p < serial.size(); ++p) {
        SCOPED_TRACE(::testing::Message()
                     << "thread " << t << ", search " << p);
        ExpectResultsIdentical(concurrent[t][p], serial[p]);
      }
    }
  }
}

TEST(TermMemoCapTest, MemoAtItsCapStopsGrowingAndKeepsAnswering) {
  // Midtown's few candidates make a small cap; the Figure 6 greedy solves
  // every near candidate each round, with a staged set one pick longer, so
  // two of its runs fill the memo.
  const gen::Dataset midtown = gen::MakeMidtown();
  const auto precompute = std::make_shared<const Precompute>(
      PlanningContext::RunPrecompute(midtown.road, midtown.transit,
                                     Options(Search::kOnline, 4, 0.5, 1)));
  const auto cold_base = [&] {
    return PlanningBase::Build(midtown.road, midtown.transit,
                               std::make_shared<const Precompute>(*precompute));
  };
  const auto base = cold_base();
  const TermMemo& memo = base->precompute()->term_memo;
  const std::size_t cap = base->precompute()->term_memo_max_pairs();
  ASSERT_GT(cap, 0u);
  constexpr int kPicks = 12;  // its longest key holds 12 pairs
  const PlanningContext greedy_ctx =
      PlanningContext::Build(base, Options(Search::kEtaPre, 8, 0.5, 1));
  RunConnectivityFirst(&greedy_ctx, kPicks);
  RunConnectivityFirst(&greedy_ctx, kPicks / 2);
  EXPECT_LE(memo.pairs(), cap);
  EXPECT_GT(memo.pairs() + kPicks, cap) << "the greedy did not fill the memo";
  const std::size_t full_size = memo.size();
  const std::size_t full_pairs = memo.pairs();

  for (const Search search : kSearches) {
    for (const int k : {4, 8, 12}) {
      SCOPED_TRACE(::testing::Message() << "search " << static_cast<int>(search)
                                        << ", k " << k);
      ExpectResultsIdentical(Plan(base, search, k, 0.5),
                             Plan(cold_base(), search, k, 0.5));
    }
  }
  const PlanningContext cold_greedy_ctx = PlanningContext::Build(
      cold_base(), Options(Search::kEtaPre, 8, 0.5, 1));
  ExpectGreedyIdentical(RunConnectivityFirst(&greedy_ctx, kPicks),
                        RunConnectivityFirst(&cold_greedy_ctx, kPicks));
  EXPECT_EQ(memo.size(), full_size);
  EXPECT_EQ(memo.pairs(), full_pairs);
}

/// `length` consecutive new universe edges from `first`: a route's shape,
/// each step to the lowest-id new edge reaching a stop not yet on it.
std::vector<int> NewEdgeRoute(const EdgeUniverse& universe, int first,
                              int length) {
  std::vector<int> route = {first};
  std::vector<int> stops = {universe.edge(first).u, universe.edge(first).v};
  while (static_cast<int>(route.size()) < length) {
    int next = -1;
    for (int e : universe.IncidentEdges(stops.back())) {
      const PlannableEdge& edge = universe.edge(e);
      const int other = edge.u == stops.back() ? edge.v : edge.u;
      if (edge.is_new &&
          std::find(stops.begin(), stops.end(), other) == stops.end()) {
        next = e;
        stops.push_back(other);
        break;
      }
    }
    if (next < 0) return {};
    route.push_back(next);
  }
  return route;
}

TEST_F(TermMemoSearchTest, WarmLaterTermsDoNotMoveThePathOrderSum) {
  // TraceIncrement sums its terms in path order, not as they finish. Warm
  // only the later terms of a k = 12 route: at width 2, 3 and 8 they come
  // back from the memo at once while the early ones still solve, so a sum
  // taken in completion order would differ from the serial bits.
  constexpr int kLength = 12;
  const EdgeUniverse& universe = precompute_->universe;
  int routes = 0;
  for (int first = 0; first < universe.num_edges() && routes < 4; ++first) {
    if (!universe.edge(first).is_new) continue;
    const std::vector<int> route = NewEdgeRoute(universe, first, kLength);
    if (route.empty()) continue;
    ++routes;
    SCOPED_TRACE(::testing::Message() << "route from edge " << first);
    int serial_solves = 0;
    const double serial =
        PlanningContext::Build(ColdBase(), Options(Search::kEtaPre, 12, 0.5, 1))
            .TraceIncrement(route, &serial_solves);
    ASSERT_EQ(serial_solves, kLength - 1);
    for (const int width : {2, 3, 8}) {
      SCOPED_TRACE(::testing::Message() << "width " << width);
      const PlanningContext ctx = PlanningContext::Build(
          ColdBase(), Options(Search::kEtaPre, 12, 0.5, width));
      constexpr int kWarmFrom = kLength / 2;
      for (int i = kWarmFrom; i < kLength; ++i) {
        ctx.EdgeTraceIncrement({route.begin(), route.begin() + i}, route[i]);
      }
      int solves = 0;
      int hits = 0;
      EXPECT_EQ(ctx.TraceIncrement(route, &solves, &hits), serial);
      EXPECT_EQ(solves, kLength - 1);
      EXPECT_EQ(hits, kLength - kWarmFrom);
    }
  }
  EXPECT_EQ(routes, 4);
}

}  // namespace
}  // namespace ctbus::core
