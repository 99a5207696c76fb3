// Concurrent searches over one shared PlanningBase: contexts built from
// one base hold no mutable state, so RunEta (both modes) and RunVkTsp
// planning on concurrent threads must match per-request builds run
// serially, bit for bit, for both expansion variants (best-neighbor and
// ETA-AN). This is how the service runs requests (one search per worker
// over a memoized base). Each search also fans its own local solves out
// over CtBusOptions::precompute_threads workers (online ETA's frontier,
// every planner's final re-evaluation), and must return the same result
// at every width, alone or beside another search doing the same. The TSan
// job runs this binary to keep the shared base and the fan-out race-free.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"

namespace ctbus::core {
namespace {

CtBusOptions TestOptions(bool best_neighbor_only) {
  CtBusOptions options;
  options.k = 8;
  options.max_turns = 3;
  options.seed_count = 60;
  options.max_iterations = 60;  // online search is the expensive mode
  options.online_estimator = {/*probes=*/8, /*lanczos_steps=*/6, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  options.best_neighbor_only = best_neighbor_only;
  options.trace_every = 7;  // include the trace in the identity check
  return options;
}

/// Exact equality on purpose, doubles included: a search on a shared
/// base must reproduce the per-request build to the last bit.
void ExpectResultsIdentical(const PlanResult& a, const PlanResult& b) {
  ASSERT_EQ(a.found, b.found);
  EXPECT_EQ(a.path.edges(), b.path.edges());
  EXPECT_EQ(a.path.stops(), b.path.stops());
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.seeds_pushed, b.seeds_pushed);
  EXPECT_EQ(a.local_solves, b.local_solves);
  EXPECT_EQ(a.trace, b.trace);
}

std::vector<PlanResult> PlanAll(const PlanningContext& ctx) {
  return {RunEta(&ctx, SearchMode::kOnline),
          RunEta(&ctx, SearchMode::kPrecomputed), RunVkTsp(&ctx)};
}

void ExpectAllIdentical(const std::vector<PlanResult>& a,
                        const std::vector<PlanResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    SCOPED_TRACE(::testing::Message() << "planner " << p);
    ExpectResultsIdentical(a[p], b[p]);
  }
}

class EtaParallelTest : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeMidtown());
    // One shared precompute keeps every context (hence every search) over
    // identical Delta(e) inputs.
    precompute_ = new std::shared_ptr<const Precompute>(
        std::make_shared<const Precompute>(PlanningContext::RunPrecompute(
            dataset_->road, dataset_->transit, TestOptions(true))));
  }
  static void TearDownTestSuite() {
    delete precompute_;
    precompute_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static gen::Dataset* dataset_;
  static std::shared_ptr<const Precompute>* precompute_;
};

gen::Dataset* EtaParallelTest::dataset_ = nullptr;
std::shared_ptr<const Precompute>* EtaParallelTest::precompute_ = nullptr;

TEST_P(EtaParallelTest, ConcurrentContextsOverOneBaseMatchSerial) {
  // Contexts over one shared PlanningBase hold no mutable state, so four
  // threads planning at once must reproduce per-request builds run one
  // after another.
  const CtBusOptions options = TestOptions(GetParam());
  const std::vector<PlanResult> serial =
      PlanAll(PlanningContext::BuildWithPrecompute(
          dataset_->road, dataset_->transit, options, *precompute_));

  const std::shared_ptr<const PlanningBase> base =
      PlanningBase::Build(dataset_->road, dataset_->transit, *precompute_);
  constexpr int kThreads = 4;
  std::vector<std::vector<PlanResult>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      concurrent[t] = PlanAll(PlanningContext::Build(base, options));
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    ExpectAllIdentical(concurrent[t], serial);
  }
}

TEST_P(EtaParallelTest, EveryFanOutWidthMatchesSerial) {
  // The width only decides which thread solves which candidate; each
  // solve lands in its own slot and is combined in a fixed order, so
  // every result, work counters included, must equal the width-1 one.
  // Two searches fanning out at once share the parked helpers; each
  // caller runs what no helper claims, so neither waits on the other.
  const std::shared_ptr<const PlanningBase> base =
      PlanningBase::Build(dataset_->road, dataset_->transit, *precompute_);
  CtBusOptions options = TestOptions(GetParam());
  options.precompute_threads = 1;
  const std::vector<PlanResult> serial =
      PlanAll(PlanningContext::Build(base, options));
  ASSERT_TRUE(serial[0].found);
  ASSERT_GT(serial[0].local_solves, 0);

  for (const int width : {1, 2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    options.precompute_threads = width;
    ExpectAllIdentical(PlanAll(PlanningContext::Build(base, options)),
                       serial);

    std::vector<std::vector<PlanResult>> concurrent(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        concurrent[t] = PlanAll(PlanningContext::Build(base, options));
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < 2; ++t) {
      SCOPED_TRACE(::testing::Message() << "concurrent search " << t);
      ExpectAllIdentical(concurrent[t], serial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothExpansionVariants, EtaParallelTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "BestNeighbor" : "AllNeighbors";
                         });

}  // namespace
}  // namespace ctbus::core
