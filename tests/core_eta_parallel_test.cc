// The determinism contract of parallel frontier expansion: RunEta in
// SearchMode::kOnline must produce bit-identical results at any
// CtBusOptions::eta_threads setting, for both expansion variants
// (best-neighbor and ETA-AN). Every frontier candidate's trace term is a
// pure function of (base adjacency, path, edge), and the candidate reduce
// replays the serial scan order, so threading must not move a single bit
// (see core/eta.h and docs/ARCHITECTURE.md). The same holds across searches: contexts over
// one shared PlanningBase, planning on concurrent threads, must match
// per-request builds run serially.
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

/// Exact equality on purpose, doubles included: a parallel frontier must
/// reproduce the serial one to the last bit.
void ExpectResultsIdentical(const PlanResult& a, const PlanResult& b,
                            int threads) {
  ASSERT_EQ(a.found, b.found) << "threads=" << threads;
  EXPECT_EQ(a.path.edges(), b.path.edges()) << "threads=" << threads;
  EXPECT_EQ(a.path.stops(), b.path.stops()) << "threads=" << threads;
  EXPECT_EQ(a.objective, b.objective) << "threads=" << threads;
  EXPECT_EQ(a.demand, b.demand) << "threads=" << threads;
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment)
      << "threads=" << threads;
  EXPECT_EQ(a.iterations, b.iterations) << "threads=" << threads;
  EXPECT_EQ(a.trace, b.trace) << "threads=" << threads;
}

class EtaParallelTest : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeMidtown());
    // One shared precompute: the knob under test must not touch it, and
    // sharing keeps every context (hence every search) over identical
    // Delta(e) inputs.
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

  static PlanResult Run(CtBusOptions options, int eta_threads,
                        SearchMode mode = SearchMode::kOnline) {
    options.eta_threads = eta_threads;
    const PlanningContext ctx = PlanningContext::BuildWithPrecompute(
        dataset_->road, dataset_->transit, options, *precompute_);
    return RunEta(&ctx, mode);
  }

  static gen::Dataset* dataset_;
  static std::shared_ptr<const Precompute>* precompute_;
};

gen::Dataset* EtaParallelTest::dataset_ = nullptr;
std::shared_ptr<const Precompute>* EtaParallelTest::precompute_ = nullptr;

TEST_P(EtaParallelTest, AnyThreadCountIsBitIdenticalToSerial) {
  const CtBusOptions options = TestOptions(GetParam());
  const PlanResult serial = Run(options, /*eta_threads=*/1);
  ASSERT_TRUE(serial.found);
  for (int threads : {2, 3, 8}) {
    ExpectResultsIdentical(Run(options, threads), serial, threads);
  }
}

TEST_P(EtaParallelTest, HardwareConcurrencySettingIsBitIdenticalToSerial) {
  const CtBusOptions options = TestOptions(GetParam());
  const PlanResult serial = Run(options, /*eta_threads=*/1);
  const PlanResult hw = Run(options, /*eta_threads=*/0);
  ExpectResultsIdentical(hw, serial, /*threads=*/0);
}

TEST_P(EtaParallelTest, PrecomputedModeNeverForks) {
  // ETA-Pre evaluates ranked-list lookups; eta_threads must be inert
  // there (identical results).
  const CtBusOptions options = TestOptions(GetParam());
  const PlanResult serial = Run(options, /*eta_threads=*/1,
                                SearchMode::kPrecomputed);
  const PlanResult parallel = Run(options, /*eta_threads=*/8,
                                  SearchMode::kPrecomputed);
  ExpectResultsIdentical(parallel, serial, /*threads=*/8);
}

TEST_P(EtaParallelTest, ConcurrentContextsOverOneBaseMatchSerial) {
  // Contexts over one shared PlanningBase hold no mutable state, so four
  // threads planning at once (online ETA itself forking two frontier
  // workers) must reproduce per-request builds run one after another.
  CtBusOptions options = TestOptions(GetParam());
  options.eta_threads = 2;
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
      ExpectResultsIdentical(concurrent[t][p], serial[p], /*threads=*/2);
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
