#include "service/snapshot_store.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/planner.h"

namespace ctbus::service {

namespace {

void SortUnique(std::vector<int>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

}  // namespace

SnapshotStore::SnapshotStore(graph::RoadNetwork road,
                             graph::TransitNetwork transit) {
  Publish(std::move(road), std::move(transit), /*parent_version=*/0, {});
}

SnapshotPtr SnapshotStore::Latest() const {
  core::MutexLock lock(mu_);
  return latest_;
}

SnapshotPtr SnapshotStore::Get(std::uint64_t version) const {
  core::MutexLock lock(mu_);
  const auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : it->second;
}

std::uint64_t SnapshotStore::latest_version() const {
  core::MutexLock lock(mu_);
  return latest_->version;
}

std::size_t SnapshotStore::num_versions() const {
  core::MutexLock lock(mu_);
  return versions_.size();
}

std::vector<std::uint64_t> SnapshotStore::Versions() const {
  core::MutexLock lock(mu_);
  std::vector<std::uint64_t> versions;
  versions.reserve(versions_.size());
  for (const auto& [version, snapshot] : versions_) versions.push_back(version);
  return versions;  // std::map iterates ascending
}

std::uint64_t SnapshotStore::CommitRoute(const core::PlanResult& result,
                                         const core::EdgeUniverse& universe,
                                         std::uint64_t base_version) {
  if (!result.found) {
    throw std::invalid_argument("CommitRoute: result has no route");
  }
  core::MutexLock commit_lock(commit_mu_);
  SnapshotPtr base =
      base_version == 0 ? Latest() : Get(base_version);
  if (base == nullptr) {
    throw std::invalid_argument("CommitRoute: unknown base version");
  }
  // Record the edge-diff against the base before mutating: pairs that were
  // not yet active-connected become transit edges, and every covered road
  // edge has its demand zeroed. This lineage is what lets the precompute
  // engine warm-start the new version (see DeltaBetween).
  core::SnapshotDelta delta;
  for (int e : result.path.edges()) {
    const core::PlannableEdge& edge = universe.edge(e);
    if (!base->transit->ActiveEdgeBetween(edge.u, edge.v).has_value()) {
      delta.added_stop_pairs.emplace_back(edge.u, edge.v);
      delta.touched_stops.push_back(edge.u);
      delta.touched_stops.push_back(edge.v);
    }
    delta.changed_road_edges.insert(delta.changed_road_edges.end(),
                                    edge.road_edges.begin(),
                                    edge.road_edges.end());
  }
  SortUnique(&delta.touched_stops);
  SortUnique(&delta.changed_road_edges);

  // Copy-on-write: mutate private copies, then publish atomically.
  graph::RoadNetwork road = *base->road;
  graph::TransitNetwork transit = *base->transit;
  core::ApplyCommit(result, universe, &road, &transit);
  return Publish(std::move(road), std::move(transit), base->version,
                 std::move(delta));
}

std::uint64_t SnapshotStore::ParentVersion(std::uint64_t version) const {
  core::MutexLock lock(mu_);
  const auto it = lineage_.find(version);
  return it == lineage_.end() ? 0 : it->second.parent_version;
}

std::optional<core::SnapshotDelta> SnapshotStore::DeltaBetween(
    std::uint64_t from_version, std::uint64_t to_version) const {
  core::MutexLock lock(mu_);
  core::SnapshotDelta composed;
  std::uint64_t cursor = to_version;
  while (cursor != from_version) {
    const auto it = lineage_.find(cursor);
    if (it == lineage_.end()) return std::nullopt;  // hit the root / unknown
    const core::SnapshotDelta& step = it->second.delta;
    composed.added_stop_pairs.insert(composed.added_stop_pairs.end(),
                                     step.added_stop_pairs.begin(),
                                     step.added_stop_pairs.end());
    composed.touched_stops.insert(composed.touched_stops.end(),
                                  step.touched_stops.begin(),
                                  step.touched_stops.end());
    composed.changed_road_edges.insert(composed.changed_road_edges.end(),
                                       step.changed_road_edges.begin(),
                                       step.changed_road_edges.end());
    cursor = it->second.parent_version;
  }
  // A pair activated by one commit stays active, so pairs cannot repeat
  // across the composed path; the id lists can, and are deduplicated.
  SortUnique(&composed.touched_stops);
  SortUnique(&composed.changed_road_edges);
  return composed;
}

void SnapshotStore::Prune(std::size_t keep_latest) {
  core::MutexLock lock(mu_);
  // keep_latest == 0 would erase every version including the latest,
  // leaving Get(latest_version()) == nullptr while Latest() still hands
  // out the snapshot. The latest version is always retained.
  if (keep_latest == 0) keep_latest = 1;
  while (versions_.size() > keep_latest) {
    resident_bytes_ -= versions_.begin()->second->approx_bytes;
    versions_.erase(versions_.begin());
  }
}

SnapshotStore::RetentionResult SnapshotStore::ApplyRetention(
    const SnapshotRetentionPolicy& policy,
    const std::vector<std::uint64_t>& protected_versions) {
  core::MutexLock lock(mu_);
  RetentionResult result;
  const std::unordered_set<std::uint64_t> protected_set(
      protected_versions.begin(), protected_versions.end());
  const auto over_limit = [&] {
    return (policy.keep_latest > 0 &&
            versions_.size() > policy.keep_latest) ||
           (policy.max_bytes > 0 && resident_bytes_ > policy.max_bytes);
  };
  // Oldest-first; the latest and protected versions are skipped, so a
  // budget tighter than the unprunable set is satisfied best-effort.
  for (auto it = versions_.begin();
       it != versions_.end() && over_limit();) {
    if (it->first == latest_->version || protected_set.count(it->first) > 0) {
      ++it;
      continue;
    }
    resident_bytes_ -= it->second->approx_bytes;
    it = versions_.erase(it);
    ++result.versions_pruned;
  }
  // Lineage below the oldest still-relevant version can never be walked
  // again: DeltaBetween(from, to) only reads records with child > from,
  // and no caller may name a `from` older than every resident AND every
  // protected version (protected covers cached donors whose snapshots
  // are long pruned — their lineage must survive for pending derives).
  std::uint64_t cutoff = latest_->version;
  if (!versions_.empty()) {
    cutoff = std::min(cutoff, versions_.begin()->first);
  }
  for (std::uint64_t v : protected_versions) {
    if (v != 0) cutoff = std::min(cutoff, v);
  }
  for (auto it = lineage_.begin();
       it != lineage_.end() && it->first <= cutoff;) {
    it = lineage_.erase(it);
    ++result.lineage_trimmed;
  }
  return result;
}

std::size_t SnapshotStore::ApproxBytes() const {
  core::MutexLock lock(mu_);
  return resident_bytes_;
}

std::size_t SnapshotStore::num_lineage_records() const {
  core::MutexLock lock(mu_);
  return lineage_.size();
}

std::uint64_t SnapshotStore::Publish(graph::RoadNetwork road,
                                     graph::TransitNetwork transit,
                                     std::uint64_t parent_version,
                                     core::SnapshotDelta delta) {
  auto snapshot = std::make_shared<NetworkSnapshot>();
  snapshot->road =
      std::make_shared<const graph::RoadNetwork>(std::move(road));
  snapshot->transit =
      std::make_shared<const graph::TransitNetwork>(std::move(transit));
  snapshot->parent_version = parent_version;
  // Networks are immutable from here on, so the footprint is measured
  // exactly once per version.
  snapshot->approx_bytes =
      snapshot->road->ApproxBytes() + snapshot->transit->ApproxBytes();
  core::MutexLock lock(mu_);
  snapshot->version = next_version_++;
  latest_ = SnapshotPtr(std::move(snapshot));
  versions_[latest_->version] = latest_;
  resident_bytes_ += latest_->approx_bytes;
  if (parent_version != 0) {
    lineage_[latest_->version] = Lineage{parent_version, std::move(delta)};
  }
  return latest_->version;
}

}  // namespace ctbus::service
