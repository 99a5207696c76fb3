#include "demand/demand_bound.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace ctbus::demand {

IncrementalDemandBound::IncrementalDemandBound(const RankedList* list, int k)
    : list_(list), k_(k) {
  assert(list != nullptr);
  assert(k >= 1);
}

BoundState IncrementalDemandBound::SeedState(int edge) const {
  BoundState state;
  state.bound = list_->TopSum(k_);
  state.cursor = k_;
  // If the seed is outside the top-k it replaces the k-th best edge
  // (Algorithm 1, lines 23-25; ranks there are 1-based).
  if (!list_->InTop(edge, k_)) {
    state.cursor = k_ - 1;
    state.bound -= list_->ValueAtRank(k_ - 1) - list_->ValueOf(edge);
  }
  return state;
}

BoundState IncrementalDemandBound::Append(BoundState state, int edge) const {
  // Algorithm 2: if the cursor-th best counted edge beats the appended one,
  // the appended edge displaces it from the potential-fill set.
  if (state.cursor > 0 &&
      list_->ValueAtRank(state.cursor - 1) > list_->ValueOf(edge)) {
    state.bound -= list_->ValueAtRank(state.cursor - 1) - list_->ValueOf(edge);
    state.cursor -= 1;
  }
  return state;
}

double IncrementalDemandBound::RescanBound(
    const std::vector<int>& path_edges) const {
  const std::unordered_set<int> in_path(path_edges.begin(), path_edges.end());
  double bound = 0.0;
  for (int e : path_edges) bound += list_->ValueOf(e);
  int remaining = k_ - static_cast<int>(path_edges.size());
  for (int rank = 0; rank < list_->size() && remaining > 0; ++rank) {
    if (in_path.count(list_->EdgeAtRank(rank)) > 0) continue;
    bound += list_->ValueAtRank(rank);
    --remaining;
  }
  return bound;
}

}  // namespace ctbus::demand
