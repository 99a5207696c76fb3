// Deterministic fork-join on a process-wide set of parked helper threads.
//
// ParallelFor runs a body over every index of [0, n) on up to
// `num_threads` workers: the calling thread is worker 0, and helper s
// (s = 0, 1, ...) only ever serves worker s + 1. Helpers start lazily, the
// first time a fan-out that wide is asked for, and then park on a
// condition variable between calls; every later call, from any thread,
// reuses them, so no call spawns a thread once its helpers exist. Workers
// claim indices one at a time from a shared counter, so items of unequal
// cost balance. The caller always takes part and runs every index no
// helper has claimed: a call never waits for a busy helper to come free,
// only for the indices helpers are already running. Two threads fanning
// out at once, or a caller whose helpers are stuck in another call's long
// index, therefore still finish.
//
// Which worker runs which index depends on scheduling; which indices run
// does not. A caller that keeps scratch per worker id, writes each index's
// result into its own slot and combines the slots in index order gets
// output bit-identical to a serial run at any width. The users:
//  * the Delta(e) loop of core::PlanningContext::RunPrecompute /
//    DerivePrecompute (docs/PRECOMPUTE.md);
//  * the trip trees of gen::GenerateDemand, each worker with its own
//    integer edge counts (gen/trip_generator.h);
//  * online ETA's frontier, one local solve per candidate
//    (core/eta.h), and PlanningContext::TraceIncrement's telescoped terms.
// The core callers take their width from CtBusOptions::precompute_threads,
// which the service sets to its per-shard worker count. The pool lives in
// linalg, the bottom layer, so both ctbus_core and ctbus_gen reach it.
#ifndef CTBUS_LINALG_PARALLEL_FOR_H_
#define CTBUS_LINALG_PARALLEL_FOR_H_

#include <functional>
#include <thread>

namespace ctbus::linalg {

/// Resolves a user-facing thread-count knob: values >= 1 pass through,
/// anything else (0 or negative) means std::thread::hardware_concurrency()
/// (minimum 1). Every thread count in the repo (ServiceOptions::num_threads,
/// CtBusOptions::precompute_threads, the trip generator's num_threads)
/// resolves through this one rule.
inline int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw >= 1 ? hw : 1;
}

/// Fork-join over [0, n) at width W = min(num_threads, n). W <= 1 runs
/// body(0, 0, n) inline on the caller. Otherwise every index i runs
/// exactly once as body(worker, i, i + 1), with worker in [0, W): 0 is
/// the caller, and no two threads hold the same worker id within one call,
/// so per-worker scratch needs no lock. The call returns after every index
/// has finished. An index that throws does not stop the others; once all
/// have run, the exception of the lowest throwing index is rethrown on the
/// caller. The body may itself call ParallelFor.
void ParallelFor(int n, int num_threads,
                 const std::function<void(int worker, int begin, int end)>&
                     body);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_PARALLEL_FOR_H_
