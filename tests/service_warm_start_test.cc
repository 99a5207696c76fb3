// Warm-start correctness: a precompute derived across snapshot versions
// (SnapshotStore lineage + PlanningContext::DerivePrecompute) must equal a
// from-scratch RunPrecompute on the new snapshot bit for bit — universe,
// trace increments, tr_0 and Delta(e) — whether derived from the parent,
// from an older ancestor, or through a chain (see docs/PRECOMPUTE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/planning_service.h"
#include "service/snapshot_store.h"

namespace ctbus::service {
namespace {

core::CtBusOptions FastOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

core::PlanResult PlanAt(const NetworkSnapshot& snapshot,
                        const core::CtBusOptions& options,
                        std::shared_ptr<const core::Precompute> precompute) {
  const core::PlanningContext context =
      core::PlanningContext::BuildWithPrecompute(
          *snapshot.road, *snapshot.transit, options, std::move(precompute));
  return core::RunEta(&context, core::SearchMode::kPrecomputed);
}

void ExpectUniversesIdentical(const core::EdgeUniverse& actual,
                              const core::EdgeUniverse& expected,
                              int num_stops) {
  ASSERT_EQ(actual.num_edges(), expected.num_edges());
  ASSERT_EQ(actual.num_new_edges(), expected.num_new_edges());
  for (int e = 0; e < expected.num_edges(); ++e) {
    const core::PlannableEdge& ea = actual.edge(e);
    const core::PlannableEdge& eb = expected.edge(e);
    EXPECT_EQ(ea.u, eb.u) << "edge " << e;
    EXPECT_EQ(ea.v, eb.v) << "edge " << e;
    EXPECT_EQ(ea.is_new, eb.is_new) << "edge " << e;
    EXPECT_EQ(ea.length, eb.length) << "edge " << e;
    EXPECT_EQ(ea.straight_distance, eb.straight_distance) << "edge " << e;
    EXPECT_EQ(ea.road_edges, eb.road_edges) << "edge " << e;
    EXPECT_EQ(ea.demand, eb.demand) << "edge " << e;
    EXPECT_EQ(ea.transit_edge, eb.transit_edge) << "edge " << e;
  }
  for (int s = 0; s < num_stops; ++s) {
    EXPECT_EQ(actual.IncidentEdges(s), expected.IncidentEdges(s))
        << "stop " << s;
  }
}

/// Derived vs from-scratch: every per-edge table and the anchor, exactly.
void ExpectPrecomputesIdentical(const core::Precompute& derived,
                                const core::Precompute& scratch,
                                int num_stops) {
  ExpectUniversesIdentical(derived.universe, scratch.universe, num_stops);
  EXPECT_EQ(derived.base_trace, scratch.base_trace);
  ASSERT_EQ(derived.trace_increments.size(), scratch.trace_increments.size());
  ASSERT_EQ(derived.increments.size(), scratch.increments.size());
  for (std::size_t e = 0; e < scratch.increments.size(); ++e) {
    EXPECT_EQ(derived.trace_increments[e], scratch.trace_increments[e])
        << "edge " << e;
    EXPECT_EQ(derived.increments[e], scratch.increments[e]) << "edge " << e;
  }
}

struct Committed {
  SnapshotPtr snapshot;  // the new version
  core::SnapshotDelta delta_from_parent;
};

/// Plans a route against `version`'s snapshot with `precompute` and commits
/// it, returning the new snapshot and the recorded delta.
Committed PlanAndCommit(SnapshotStore* store, std::uint64_t version,
                        const core::CtBusOptions& options,
                        const core::Precompute& precompute) {
  const SnapshotPtr base = store->Get(version);
  EXPECT_NE(base, nullptr);
  const core::PlanResult plan = PlanAt(
      *base, options,
      std::make_shared<const core::Precompute>(precompute));
  EXPECT_TRUE(plan.found);
  const std::uint64_t next =
      store->CommitRoute(plan, precompute.universe, version);
  Committed committed;
  committed.snapshot = store->Get(next);
  const auto delta = store->DeltaBetween(version, next);
  EXPECT_TRUE(delta.has_value());
  committed.delta_from_parent = *delta;
  return committed;
}

TEST(SnapshotDeltaTest, CommitRecordsLineageAndEdgeDiff) {
  gen::Dataset d = gen::MakeMidtown();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();
  const core::Precompute pre1 = core::PlanningContext::RunPrecompute(
      *store.Get(1)->road, *store.Get(1)->transit, options);

  EXPECT_EQ(store.ParentVersion(1), 0u);
  const auto empty = store.DeltaBetween(1, 1);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->added_stop_pairs.empty());
  EXPECT_TRUE(empty->touched_stops.empty());

  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);
  ASSERT_NE(v2.snapshot, nullptr);
  EXPECT_EQ(v2.snapshot->version, 2u);
  EXPECT_EQ(v2.snapshot->parent_version, 1u);
  EXPECT_EQ(store.ParentVersion(2), 1u);
  EXPECT_EQ(store.Versions(), (std::vector<std::uint64_t>{1, 2}));

  const core::SnapshotDelta& delta = v2.delta_from_parent;
  ASSERT_FALSE(delta.added_stop_pairs.empty());
  ASSERT_FALSE(delta.touched_stops.empty());
  ASSERT_FALSE(delta.changed_road_edges.empty());
  EXPECT_TRUE(std::is_sorted(delta.touched_stops.begin(),
                             delta.touched_stops.end()));
  EXPECT_TRUE(std::is_sorted(delta.changed_road_edges.begin(),
                             delta.changed_road_edges.end()));
  const SnapshotPtr v1 = store.Get(1);
  for (const auto& [u, v] : delta.added_stop_pairs) {
    EXPECT_FALSE(v1->transit->ActiveEdgeBetween(u, v).has_value());
    EXPECT_TRUE(v2.snapshot->transit->ActiveEdgeBetween(u, v).has_value());
  }

  // Walking against the tree direction is not a valid warm-start path.
  EXPECT_FALSE(store.DeltaBetween(2, 1).has_value());
  EXPECT_FALSE(store.DeltaBetween(99, 2).has_value());
}

// The exactness tests run on ChicagoLike at scale 0.5 (387 stops): large
// enough that a commit leaves most balls untouched, so both the re-solved
// and the carried halves of the derivation are exercised.
TEST(WarmStartTest, DerivedMatchesFromScratchAfterOneCommit) {
  gen::Dataset d = gen::MakeChicagoLike(0.5);
  const int num_stops = d.transit.num_stops();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();

  const SnapshotPtr v1 = store.Get(1);
  const core::Precompute pre1 =
      core::PlanningContext::RunPrecompute(*v1->road, *v1->transit, options);
  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);

  const core::Precompute scratch = core::PlanningContext::RunPrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options);
  const core::Precompute derived = core::PlanningContext::DerivePrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options, pre1,
      v2.delta_from_parent);

  ExpectPrecomputesIdentical(derived, scratch, num_stops);

  EXPECT_TRUE(derived.stats.derived);
  EXPECT_FALSE(scratch.stats.derived);
  EXPECT_EQ(derived.stats.num_increments_recomputed +
                derived.stats.num_increments_carried,
            derived.universe.num_new_edges());
  EXPECT_GT(derived.stats.num_increments_carried, 0);
  EXPECT_LT(derived.stats.num_increments_recomputed,
            derived.universe.num_new_edges());
}

TEST(WarmStartTest, StackedCommitsDeriveDirectlyAndThroughTheChain) {
  gen::Dataset d = gen::MakeChicagoLike(0.5);
  const int num_stops = d.transit.num_stops();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();

  const SnapshotPtr v1 = store.Get(1);
  const core::Precompute pre1 =
      core::PlanningContext::RunPrecompute(*v1->road, *v1->transit, options);
  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);
  const core::Precompute derived2 = core::PlanningContext::DerivePrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options, pre1,
      v2.delta_from_parent);
  const Committed v3 = PlanAndCommit(&store, 2, options, derived2);
  ASSERT_EQ(v3.snapshot->version, 3u);

  const core::Precompute scratch3 = core::PlanningContext::RunPrecompute(
      *v3.snapshot->road, *v3.snapshot->transit, options);

  // Direct derivation from the grandparent uses the composed delta.
  const auto composed = store.DeltaBetween(1, 3);
  ASSERT_TRUE(composed.has_value());
  EXPECT_GE(composed->added_stop_pairs.size(),
            v2.delta_from_parent.added_stop_pairs.size());
  const core::Precompute direct = core::PlanningContext::DerivePrecompute(
      *v3.snapshot->road, *v3.snapshot->transit, options, pre1, *composed);
  ExpectPrecomputesIdentical(direct, scratch3, num_stops);

  // Chained derivation: derive v3 from the already-derived v2 precompute,
  // re-solving only what the *second* commit can reach.
  const core::Precompute chained = core::PlanningContext::DerivePrecompute(
      *v3.snapshot->road, *v3.snapshot->transit, options, derived2,
      v3.delta_from_parent);
  ExpectPrecomputesIdentical(chained, scratch3, num_stops);
  EXPECT_LE(chained.stats.num_increments_recomputed,
            direct.stats.num_increments_recomputed);
}

TEST(ServiceWarmStartTest, CommitThenLatestPlanDerivesInsteadOfRecomputing) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();

  const ServiceResult first = service.Plan(request);
  ASSERT_TRUE(first.plan.found);
  EXPECT_FALSE(first.stats.precompute_cache_hit);
  EXPECT_FALSE(first.stats.precompute_derived);

  service.Commit(first);

  const ServiceResult second = service.Plan(request);  // latest is now v2
  EXPECT_EQ(second.stats.snapshot_version, 2u);
  EXPECT_FALSE(second.stats.precompute_cache_hit);
  EXPECT_TRUE(second.stats.precompute_derived);
  ASSERT_TRUE(second.plan.found);

  const ServiceResult third = service.Plan(request);  // v2 entry now hot
  EXPECT_TRUE(third.stats.precompute_cache_hit);
  EXPECT_FALSE(third.stats.precompute_derived);

  const auto stats = service.service_stats();
  EXPECT_EQ(stats.precomputes_from_scratch, 1u);
  EXPECT_EQ(stats.precomputes_derived, 1u);
}

TEST(ServiceWarmStartTest, DerivesFromTheNearestResidentAncestor) {
  // Stacked commits chain derivations: with v1 and v2 both resident, v3's
  // precompute derives from v2 over the v2 -> v3 delta alone.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("chicago", 0.5);

  PlanRequest request;
  request.dataset = "chicago";
  request.options = FastOptions();

  const ServiceResult r1 = service.Plan(request);
  service.Commit(r1);
  const ServiceResult r2 = service.Plan(request);
  ASSERT_TRUE(r2.stats.precompute_derived);
  service.Commit(r2);
  const ServiceResult r3 = service.Plan(request);
  ASSERT_TRUE(r3.stats.precompute_derived);
  EXPECT_EQ(r3.stats.snapshot_version, 3u);

  const SnapshotPtr v2 = service.Snapshot("chicago", 2);
  const SnapshotPtr v3 = service.Snapshot("chicago", 3);
  const core::Precompute pre2 = core::PlanningContext::RunPrecompute(
      *v2->road, *v2->transit, request.options);
  core::SnapshotDelta delta;  // v2 -> v3, read off the two networks
  for (int e = 0; e < v3->transit->num_edges(); ++e) {
    const graph::TransitNetwork::Edge& edge = v3->transit->edge(e);
    if (v3->transit->EdgeActive(e) &&
        !v2->transit->ActiveEdgeBetween(edge.u, edge.v).has_value()) {
      delta.touched_stops.push_back(edge.u);
      delta.touched_stops.push_back(edge.v);
    }
  }
  ASSERT_FALSE(delta.touched_stops.empty());
  const core::Precompute from_parent = core::PlanningContext::DerivePrecompute(
      *v3->road, *v3->transit, request.options, pre2, delta);
  EXPECT_EQ(r3.stats.precompute.num_increments_recomputed,
            from_parent.stats.num_increments_recomputed);
  EXPECT_EQ(r3.stats.precompute.num_increments_carried,
            from_parent.stats.num_increments_carried);
  EXPECT_GT(r3.stats.precompute.num_increments_carried, 0);
}

TEST(ServiceWarmStartTest, WarmAndColdServicesServeBitIdenticalPlans) {
  // Two services committing the same (deterministic) first route: one warm
  // starts, one has caching disabled and recomputes from scratch. The
  // post-commit plans must be bit-identical.
  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();

  ServiceOptions warm_options;
  warm_options.num_threads = 1;
  PlanningService warm(warm_options);
  warm.RegisterPreset("midtown");

  ServiceOptions cold_options;
  cold_options.num_threads = 1;
  cold_options.cache_capacity = 0;
  PlanningService cold(cold_options);
  cold.RegisterPreset("midtown");
  const ServiceResult warm_first = warm.Plan(request);
  const ServiceResult cold_first = cold.Plan(request);
  ASSERT_TRUE(warm_first.plan.found);
  ASSERT_EQ(warm_first.plan.path.stops(), cold_first.plan.path.stops());
  warm.Commit(warm_first);
  cold.Commit(cold_first);

  const ServiceResult warm_second = warm.Plan(request);
  const ServiceResult cold_second = cold.Plan(request);
  EXPECT_TRUE(warm_second.stats.precompute_derived);
  EXPECT_FALSE(cold_second.stats.precompute_derived);
  ASSERT_TRUE(warm_second.plan.found);
  EXPECT_EQ(warm_second.plan.path.edges(), cold_second.plan.path.edges());
  EXPECT_EQ(warm_second.plan.path.stops(), cold_second.plan.path.stops());
  EXPECT_EQ(warm_second.plan.objective, cold_second.plan.objective);
  EXPECT_EQ(warm_second.plan.demand, cold_second.plan.demand);
  EXPECT_EQ(warm_second.plan.connectivity_increment,
            cold_second.plan.connectivity_increment);
}

}  // namespace
}  // namespace ctbus::service
