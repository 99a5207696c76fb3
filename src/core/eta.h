// Expansion-based Traversal Algorithm (ETA, Algorithm 1) and its
// pre-computation variant ETA-Pre (Section 6).
//
// The search keeps a priority queue of candidate paths ordered by their
// objective upper bound O_up: a vector driven by std::push_heap /
// std::pop_heap, the same operations std::priority_queue performs, so equal
// bounds pop in the same order. The heap holds 16-byte (bound, reference)
// slots and the entries sit beside it, so the heap moves no paths; the
// operations compare the same bounds, so the slots pop in the order the
// entries themselves would. Each iteration moves the most promising
// candidate out, extends it at both ends with the best feasible neighbor
// edges, re-evaluates the objective, and re-enqueues the extension if its
// bound still beats the incumbent and it survives the domination table.
// The search builds the L_e it reads (PlanningContext::BuildObjectiveList)
// and pushes every top-sn seed that beats the incumbent, as a bare edge id
// (a request pops only a few hundred of them) that builds its path when
// popped; candidate extensions are scored from (parent, edge) without
// building the child, and ETA-AN builds a child only when it can become
// the incumbent or be re-enqueued.
//
// Equal bounds are common (the top-k seeds all share the bound
// sum_{i<k} L(i)), so which of them pops first decides which route an
// it_max-truncated search ends on. That tie order is the heap's, over every
// pushed seed: a queue that admitted seeds lazily, or broke ties by a key,
// would pop them in another order and, on a few requests, end on another
// route.
//
// Two evaluation modes:
//  * kOnline (ETA): every queue entry carries Delta tr(P), the change in
//    tr(e^A) its path's new edges make. A candidate extension e costs one
//    exact local increment Delta tr(e | P) on the radius-3 ball around e
//    (connectivity/local_increment.h), scored as
//    log1p((Delta tr(P) + Delta tr(e | P)) / tr_0); the chosen edge's term
//    is added to the entry, so re-evaluating the extended path is free.
//    A frontier's candidates are independent solves: they fan out over
//    CtBusOptions::precompute_threads workers (linalg::ParallelFor), each
//    into its own slot, and are scored serially in candidate order, so the
//    route is bit-identical at any width. A term an earlier request solved
//    is read from the precompute's term memo (core/term_memo.h) instead,
//    with the same bits.
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
  kOnline,      // ETA: local trace increment per candidate
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
  /// Raw connectivity increment O_lambda(mu) of the final path,
  /// re-evaluated in both modes with
  /// PlanningContext::OnlineConnectivityIncrement (exact local trace
  /// increments telescoped in path order), so it is a pure function of
  /// (snapshot, route).
  double connectivity_increment = 0.0;
  /// Iterations executed (polls surviving the termination check).
  int iterations = 0;
  /// Seeds pushed into the queue (the top-sn edges allowed and with a
  /// bound above the first incumbent): a work counter, not part of a
  /// response.
  int seeds_pushed = 0;
  /// Local trace increments (connectivity::LocalTraceIncrement terms) the
  /// request needed, in the search (online ETA's seeds and frontier) and in
  /// the final re-evaluation of the winner, whether solved or read from the
  /// precompute: a work counter and a pure function of the request, not
  /// part of a response.
  int local_solves = 0;
  /// Of local_solves, the terms read from the precompute (its Delta tr(e)
  /// table or its term memo) instead of solved, counted on the calling
  /// thread. It depends on what earlier requests over the same precompute
  /// solved, so it is history, not a function of the request: no response,
  /// checksum or identity check reads it.
  int memo_hits = 0;
  /// Wall-clock search time, excluding context construction and the
  /// search's set-up (its L_e and, online, the Lemma 4 bound).
  double seconds = 0.0;
  /// (iteration, incumbent objective) samples, if tracing was enabled.
  std::vector<std::pair<int, double>> trace;
};

/// Runs the search over a prepared context. The search only reads the
/// context, so any number of searches may share one at once.
PlanResult RunEta(const PlanningContext* context, SearchMode mode);

}  // namespace ctbus::core

#endif  // CTBUS_CORE_ETA_H_
