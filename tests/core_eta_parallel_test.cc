// Concurrent searches over one shared PlanningBase: contexts built from
// one base hold no mutable state, so RunEta (both modes) and RunVkTsp
// planning on concurrent threads must match per-request builds run
// serially, bit for bit, for both expansion variants (best-neighbor and
// ETA-AN). This is how the service runs requests (one search per worker
// over a memoized base), and the TSan job runs this binary to keep the
// shared base race-free.
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
  EXPECT_EQ(a.trace, b.trace);
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
  const auto plan_all = [](const PlanningContext& ctx) {
    return std::vector<PlanResult>{RunEta(&ctx, SearchMode::kOnline),
                                   RunEta(&ctx, SearchMode::kPrecomputed),
                                   RunVkTsp(&ctx)};
  };
  const std::vector<PlanResult> serial =
      plan_all(PlanningContext::BuildWithPrecompute(
          dataset_->road, dataset_->transit, options, *precompute_));

  const std::shared_ptr<const PlanningBase> base =
      PlanningBase::Build(dataset_->road, dataset_->transit, *precompute_);
  constexpr int kThreads = 4;
  std::vector<std::vector<PlanResult>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      concurrent[t] = plan_all(PlanningContext::Build(base, options));
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(concurrent[t].size(), serial.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "thread " << t << " planner " << p);
      ExpectResultsIdentical(concurrent[t][p], serial[p]);
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
