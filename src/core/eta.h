// Expansion-based Traversal Algorithm (ETA, Algorithm 1) and its
// pre-computation variant ETA-Pre (Section 6).
//
// The search keeps a priority queue of candidate paths ordered by their
// objective upper bound O_up. Each iteration polls the most promising
// candidate, extends it at both ends with the best feasible neighbor edges,
// re-evaluates the objective, and re-enqueues the extension if its bound
// still beats the incumbent and it survives the domination table.
//
// Two evaluation modes:
//  * kOnline (ETA): the connectivity increment of every evaluated extension
//    is estimated on the spot with the shared Lanczos+Hutchinson estimator.
//    With CtBusOptions::eta_threads > 1 the per-frontier estimates fan out
//    over a persistent WorkerPool — one private scratch adjacency per
//    worker slot, all sharing the base's immutable estimator, reduced
//    in serial order — so results are bit-identical at any thread count.
//  * kPrecomputed (ETA-Pre): the objective is linear in the edges via the
//    integrated ranking L_e (Equation 11); no estimator calls during the
//    search. The winner's true connectivity is re-estimated once at the end.
#ifndef CTBUS_CORE_ETA_H_
#define CTBUS_CORE_ETA_H_

#include <utility>
#include <vector>

#include "core/path_state.h"
#include "core/planning_context.h"

namespace ctbus::core {

enum class SearchMode {
  kOnline,      // ETA: Lanczos evaluation per candidate
  kPrecomputed  // ETA-Pre: linearized objective via L_e
};

struct PlanResult {
  /// True if any feasible route was found.
  bool found = false;
  CandidatePath path;
  /// Normalized objective value O(mu) (Equation 3).
  double objective = 0.0;
  /// Raw commuting demand O_d(mu).
  double demand = 0.0;
  /// Raw connectivity increment O_lambda(mu), re-estimated online for the
  /// final path in both modes.
  double connectivity_increment = 0.0;
  /// Iterations executed (polls surviving the termination check).
  int iterations = 0;
  /// Wall-clock search time, excluding context construction.
  double seconds = 0.0;
  /// (iteration, incumbent objective) samples, if tracing was enabled.
  std::vector<std::pair<int, double>> trace;
};

/// Runs the search over a prepared context. The context is mutated only
/// through its scratch state — the shared scratch adjacency (restored
/// after every estimate) and, in kOnline mode with eta_threads > 1, the
/// lazily-built per-worker evaluation units — so a const context suffices,
/// but one context must not serve two concurrent searches (the search owns
/// the context's worker slots for its duration).
PlanResult RunEta(const PlanningContext* context, SearchMode mode);

}  // namespace ctbus::core

#endif  // CTBUS_CORE_ETA_H_
