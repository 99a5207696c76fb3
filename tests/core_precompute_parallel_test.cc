// The determinism contract of the sharded Delta(e) loop: RunPrecompute
// must produce bit-identical output at any precompute_threads setting
// (see docs/PRECOMPUTE.md).
#include <gtest/gtest.h>

#include <vector>

#include "core/planning_context.h"
#include "gen/datasets.h"

namespace ctbus::core {
namespace {

CtBusOptions TestOptions() {
  CtBusOptions options;
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

void ExpectUniversesIdentical(const EdgeUniverse& a, const EdgeUniverse& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_new_edges(), b.num_new_edges());
  for (int e = 0; e < a.num_edges(); ++e) {
    const PlannableEdge& ea = a.edge(e);
    const PlannableEdge& eb = b.edge(e);
    EXPECT_EQ(ea.u, eb.u) << "edge " << e;
    EXPECT_EQ(ea.v, eb.v) << "edge " << e;
    EXPECT_EQ(ea.is_new, eb.is_new) << "edge " << e;
    EXPECT_EQ(ea.length, eb.length) << "edge " << e;
    EXPECT_EQ(ea.straight_distance, eb.straight_distance) << "edge " << e;
    EXPECT_EQ(ea.road_edges, eb.road_edges) << "edge " << e;
    EXPECT_EQ(ea.demand, eb.demand) << "edge " << e;
    EXPECT_EQ(ea.transit_edge, eb.transit_edge) << "edge " << e;
  }
}

TEST(PrecomputeParallelTest, AnyThreadCountIsBitIdenticalToSerial) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusOptions options = TestOptions();

  options.precompute_threads = 1;
  const Precompute serial =
      PlanningContext::RunPrecompute(d.road, d.transit, options);
  ASSERT_GT(serial.universe.num_new_edges(), 0);
  EXPECT_EQ(serial.stats.threads_used, 1);
  EXPECT_FALSE(serial.stats.derived);
  EXPECT_EQ(serial.stats.num_increments_recomputed,
            serial.universe.num_new_edges());

  for (int threads : {2, 3, 8}) {
    options.precompute_threads = threads;
    const Precompute parallel =
        PlanningContext::RunPrecompute(d.road, d.transit, options);
    ExpectUniversesIdentical(parallel.universe, serial.universe);
    ASSERT_EQ(parallel.increments.size(), serial.increments.size());
    EXPECT_EQ(parallel.base_trace, serial.base_trace);
    for (std::size_t e = 0; e < serial.increments.size(); ++e) {
      // Exact double equality on purpose: each local increment is a pure
      // function of its edge's ball, so sharding must not move a single bit.
      EXPECT_EQ(parallel.trace_increments[e], serial.trace_increments[e])
          << "threads=" << threads << " edge=" << e;
      EXPECT_EQ(parallel.increments[e], serial.increments[e])
          << "threads=" << threads << " edge=" << e;
    }
    EXPECT_EQ(parallel.stats.threads_used,
              std::min(threads, serial.universe.num_new_edges()));
  }
}

TEST(PrecomputeParallelTest, HardwareConcurrencySettingRuns) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusOptions options = TestOptions();
  options.precompute_threads = 1;
  const Precompute serial =
      PlanningContext::RunPrecompute(d.road, d.transit, options);
  options.precompute_threads = 0;  // hardware concurrency
  const Precompute hw = PlanningContext::RunPrecompute(d.road, d.transit,
                                                       options);
  EXPECT_EQ(hw.trace_increments, serial.trace_increments);
  EXPECT_EQ(hw.increments, serial.increments);
  EXPECT_GE(hw.stats.threads_used, 1);
}

}  // namespace
}  // namespace ctbus::core
