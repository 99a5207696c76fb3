// SnapshotStore invariants around pruning. The load-bearing one:
// Prune(keep_latest) clamps to keeping at least one version, so
// Get(latest_version()) and Latest() always agree — Prune(0) used to erase
// every version including the latest, after which Get(latest_version())
// returned nullptr while Latest() still handed out the snapshot. Also:
// a store commit applies the same Section 6.3 rule as the CtBusPlanner
// facade, byte for byte.
#include "service/snapshot_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/eta.h"
#include "core/planner.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "io/snapshot.h"

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

/// Plans one route against the latest snapshot and commits it on top.
std::uint64_t CommitOne(SnapshotStore* store,
                        const core::CtBusOptions& options) {
  const SnapshotPtr snap = store->Latest();
  const auto ctx =
      core::PlanningContext::Build(*snap->road, *snap->transit, options);
  const core::PlanResult plan =
      core::RunEta(&ctx, core::SearchMode::kPrecomputed);
  EXPECT_TRUE(plan.found);
  return store->CommitRoute(plan, ctx.universe(), snap->version);
}

class SnapshotStorePruneTest : public ::testing::Test {
 protected:
  SnapshotStorePruneTest() {
    gen::Dataset d = gen::MakeMidtown();
    store_ = std::make_unique<SnapshotStore>(std::move(d.road),
                                             std::move(d.transit));
    const core::CtBusOptions options = FastOptions();
    CommitOne(store_.get(), options);
    latest_ = CommitOne(store_.get(), options);
  }

  std::unique_ptr<SnapshotStore> store_;
  std::uint64_t latest_ = 0;
};

TEST_F(SnapshotStorePruneTest, PruneZeroStillKeepsTheLatestVersion) {
  ASSERT_EQ(store_->num_versions(), 3u);
  ASSERT_EQ(store_->latest_version(), latest_);

  store_->Prune(0);  // clamped to 1
  EXPECT_EQ(store_->num_versions(), 1u);
  EXPECT_EQ(store_->latest_version(), latest_);
  const SnapshotPtr by_version = store_->Get(latest_);
  ASSERT_NE(by_version, nullptr);  // the regression: this was nullptr
  EXPECT_EQ(by_version, store_->Latest());
  EXPECT_EQ(store_->Get(1), nullptr);  // older versions do drop
}

TEST_F(SnapshotStorePruneTest, PruneOneKeepsExactlyTheLatest) {
  store_->Prune(1);
  EXPECT_EQ(store_->num_versions(), 1u);
  ASSERT_NE(store_->Get(latest_), nullptr);
  EXPECT_EQ(store_->Get(latest_), store_->Latest());
  EXPECT_EQ(store_->Versions(), std::vector<std::uint64_t>{latest_});
  EXPECT_EQ(store_->Get(1), nullptr);
  EXPECT_EQ(store_->Get(2), nullptr);
}

TEST_F(SnapshotStorePruneTest, LineageSurvivesPruning) {
  store_->Prune(0);
  // Warm starts only need the delta, never the donor's networks, so the
  // lineage chain back to the seed version must survive pruning.
  EXPECT_EQ(store_->ParentVersion(latest_), 2u);
  const auto delta = store_->DeltaBetween(1, latest_);
  ASSERT_TRUE(delta.has_value());
  EXPECT_FALSE(delta->added_stop_pairs.empty());
}

TEST_F(SnapshotStorePruneTest, ApproxBytesTracksResidentVersions) {
  const std::size_t seed_bytes = store_->Get(1)->approx_bytes;
  const std::size_t latest_bytes = store_->Latest()->approx_bytes;
  ASSERT_GT(seed_bytes, 0u);
  // Commits only add transit edges/routes: versions grow monotonically.
  EXPECT_GE(latest_bytes, seed_bytes);
  EXPECT_GE(store_->ApproxBytes(), 3 * seed_bytes);
  store_->Prune(1);
  EXPECT_EQ(store_->ApproxBytes(), latest_bytes);
}

TEST_F(SnapshotStorePruneTest, RetentionKeepLatestPrunesOldestFirst) {
  SnapshotRetentionPolicy policy;
  policy.keep_latest = 2;
  const auto result = store_->ApplyRetention(policy);
  EXPECT_EQ(result.versions_pruned, 1u);
  EXPECT_EQ(store_->Versions(), (std::vector<std::uint64_t>{2, latest_}));
}

TEST_F(SnapshotStorePruneTest, RetentionByteBudgetPrunesDownToTheBudget) {
  SnapshotRetentionPolicy policy;
  policy.max_bytes = store_->Latest()->approx_bytes + 1;  // fits one
  const auto result = store_->ApplyRetention(policy);
  EXPECT_EQ(result.versions_pruned, 2u);
  EXPECT_EQ(store_->num_versions(), 1u);
  EXPECT_LE(store_->ApproxBytes(), policy.max_bytes);
  EXPECT_NE(store_->Get(latest_), nullptr);  // latest is never pruned
}

TEST_F(SnapshotStorePruneTest, RetentionNeverPrunesProtectedVersions) {
  SnapshotRetentionPolicy policy;
  policy.keep_latest = 1;
  // Version 1 is protected (a queued request pinned it): only version 2
  // is prunable, and the count budget is satisfied best-effort.
  const auto result = store_->ApplyRetention(policy, {1});
  EXPECT_EQ(result.versions_pruned, 1u);
  EXPECT_NE(store_->Get(1), nullptr);
  EXPECT_EQ(store_->Get(2), nullptr);
  EXPECT_NE(store_->Get(latest_), nullptr);
}

TEST_F(SnapshotStorePruneTest,
       RetentionRefusesToSeverAProtectedDonorsLineage) {
  ASSERT_EQ(store_->num_lineage_records(), 2u);  // children 2 and 3
  SnapshotRetentionPolicy policy;
  policy.keep_latest = 1;
  // A pending warm-start derive holds version 2's precompute as its
  // donor (the serving layer passes every cache-resident version as
  // protected): the records walking latest back to 2 must survive, even
  // though version 2's snapshot itself may be pruned later.
  auto result = store_->ApplyRetention(policy, {2});
  EXPECT_EQ(result.versions_pruned, 1u);   // version 1 only; 2 protected
  EXPECT_EQ(result.lineage_trimmed, 1u);   // child-2 record is dead
  EXPECT_TRUE(store_->DeltaBetween(2, latest_).has_value());  // intact
  EXPECT_FALSE(store_->DeltaBetween(1, latest_).has_value());

  // Once nothing protects version 2 anymore, its chain is trimmed too.
  result = store_->ApplyRetention(policy);
  EXPECT_EQ(result.versions_pruned, 1u);
  EXPECT_EQ(result.lineage_trimmed, 1u);
  EXPECT_EQ(store_->num_lineage_records(), 0u);
  EXPECT_TRUE(store_->DeltaBetween(latest_, latest_).has_value());
}

TEST_F(SnapshotStorePruneTest, UnlimitedRetentionIsANoOpOnResidentStores) {
  const SnapshotRetentionPolicy unlimited;
  const auto result = store_->ApplyRetention(unlimited);
  EXPECT_EQ(result.versions_pruned, 0u);
  EXPECT_EQ(result.lineage_trimmed, 0u);
  EXPECT_EQ(store_->num_versions(), 3u);
  EXPECT_EQ(store_->num_lineage_records(), 2u);
}

TEST(SnapshotStoreCommitTest, StoreAndFacadeCommitTheSameNetworks) {
  // Two stacked rounds: each plan is committed once through the facade
  // and once through the store; the resulting networks must encode to
  // the same bytes.
  gen::Dataset d = gen::MakeMidtown();
  const core::CtBusOptions options = FastOptions();
  core::CtBusPlanner facade(d.road, d.transit, options);
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  for (int round = 0; round < 2; ++round) {
    const SnapshotPtr snap = store.Latest();
    const auto ctx =
        core::PlanningContext::Build(*snap->road, *snap->transit, options);
    const core::PlanResult plan =
        core::RunEta(&ctx, core::SearchMode::kPrecomputed);
    ASSERT_TRUE(plan.found);
    facade.CommitRoute(plan);
    store.CommitRoute(plan, ctx.universe());
    const SnapshotPtr committed = store.Latest();
    EXPECT_NE(io::NetworkFingerprint(*committed->road, *committed->transit),
              io::NetworkFingerprint(*snap->road, *snap->transit))
        << "round " << round;
    EXPECT_EQ(io::NetworkFingerprint(facade.road(), facade.transit()),
              io::NetworkFingerprint(*committed->road, *committed->transit))
        << "round " << round;
  }
}

}  // namespace
}  // namespace ctbus::service
