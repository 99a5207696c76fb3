// The determinism contract of parallel frontier expansion: RunEta in
// SearchMode::kOnline must produce bit-identical results at any
// CtBusOptions::eta_threads setting, for both expansion variants
// (best-neighbor and ETA-AN). Each worker slot owns a private scratch
// adjacency and shares the base's immutable estimator (same pinned
// probes), and the candidate reduce replays the serial scan order, so
// threading must not move a single bit (see core/eta.h and
// docs/ARCHITECTURE.md). The same holds across searches: contexts over
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

/// Exact equality on purpose, doubles included: per-slot evaluation units
/// must reproduce the shared serial scratch to the last bit.
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

/// A plan plus the context's worker-slot bookkeeping (the context itself
/// does not outlive the run; its default constructor is private).
struct RunOutcome {
  PlanResult result;
  int slots_reserved = 0;
  int units_built = 0;
};

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

  static RunOutcome Run(CtBusOptions options, int eta_threads,
                        SearchMode mode = SearchMode::kOnline) {
    options.eta_threads = eta_threads;
    const PlanningContext ctx = PlanningContext::BuildWithPrecompute(
        dataset_->road, dataset_->transit, options, *precompute_);
    RunOutcome out;
    out.result = RunEta(&ctx, mode);
    out.slots_reserved = ctx.num_online_eval_slots();
    out.units_built = ctx.num_online_eval_units_built();
    return out;
  }

  static gen::Dataset* dataset_;
  static std::shared_ptr<const Precompute>* precompute_;
};

gen::Dataset* EtaParallelTest::dataset_ = nullptr;
std::shared_ptr<const Precompute>* EtaParallelTest::precompute_ = nullptr;

TEST_P(EtaParallelTest, AnyThreadCountIsBitIdenticalToSerial) {
  const CtBusOptions options = TestOptions(GetParam());
  const RunOutcome serial = Run(options, /*eta_threads=*/1);
  ASSERT_TRUE(serial.result.found);
  // The serial fast path must not even reserve worker slots.
  EXPECT_EQ(serial.slots_reserved, 0);

  for (int threads : {2, 3, 8}) {
    const RunOutcome parallel = Run(options, threads);
    ExpectResultsIdentical(parallel.result, serial.result, threads);
    EXPECT_EQ(parallel.slots_reserved, threads);
    // The frontier fan-out really ran: the caller's slot and at least one
    // pool thread's slot were materialized by first use.
    EXPECT_GE(parallel.units_built, 2) << "threads=" << threads;
  }
}

TEST_P(EtaParallelTest, HardwareConcurrencySettingIsBitIdenticalToSerial) {
  const CtBusOptions options = TestOptions(GetParam());
  const RunOutcome serial = Run(options, /*eta_threads=*/1);
  const RunOutcome hw = Run(options, /*eta_threads=*/0);
  ExpectResultsIdentical(hw.result, serial.result, /*threads=*/0);
}

TEST_P(EtaParallelTest, PrecomputedModeNeverForks) {
  // ETA-Pre evaluates ranked-list lookups; eta_threads must be inert
  // there (no slots reserved, identical results).
  const CtBusOptions options = TestOptions(GetParam());
  const RunOutcome serial = Run(options, /*eta_threads=*/1,
                                SearchMode::kPrecomputed);
  const RunOutcome parallel = Run(options, /*eta_threads=*/8,
                                  SearchMode::kPrecomputed);
  EXPECT_EQ(parallel.slots_reserved, 0);
  EXPECT_EQ(parallel.units_built, 0);
  ExpectResultsIdentical(parallel.result, serial.result, /*threads=*/8);
}

TEST_P(EtaParallelTest, ConcurrentContextsOverOneBaseMatchSerial) {
  // Contexts over one shared PlanningBase only add private scratch, so
  // four threads planning at once (online ETA itself forking two frontier
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

  const std::shared_ptr<const PlanningBase> base = PlanningBase::Build(
      dataset_->road, dataset_->transit, options.online_estimator,
      *precompute_);
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
