// Deterministic fork-join parallelism for the precompute and trip loops.
//
// ParallelFor statically partitions [0, n) into min(num_threads, n)
// contiguous shards, runs shard 0 on the caller and every other shard on
// a thread spawned for this one call, and joins them all before
// returning. The partition depends only on (n, num_threads), never on
// scheduling, so a caller that gives every shard its own scratch state
// and writes each result into its own slot gets output that is
// bit-identical to a serial run at any thread count. Its two users are the
// Delta(e) loop of PlanningContext::RunPrecompute / DerivePrecompute (see
// docs/PRECOMPUTE.md for the determinism contract) and the trip trees of
// gen::GenerateDemand, whose shards each keep their own edge counts (see
// gen/trip_generator.h). It lives
// in linalg, the bottom layer, so both ctbus_core and ctbus_gen reach it;
// the ETA search itself is serial.
#ifndef CTBUS_LINALG_PARALLEL_FOR_H_
#define CTBUS_LINALG_PARALLEL_FOR_H_

#include <algorithm>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

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

/// One-shot fork-join. Partitions [0, n) into S = min(num_threads, n)
/// contiguous shards: shard s covers [s*n/S, (s+1)*n/S), so every index
/// is covered exactly once and shards are within 1 of equal size. The
/// calling thread runs shard 0 and a fresh thread runs each other shard;
/// S == 1 (num_threads <= 1 or n == 1) runs inline with no spawn.
/// Exceptions thrown by shards are captured per shard; after every shard
/// has finished, the lowest shard id's exception is rethrown on the
/// calling thread.
inline void ParallelFor(int n, int num_threads,
                        const std::function<void(int shard, int begin,
                                                 int end)>& body) {
  if (n <= 0) return;
  const int shards = std::max(1, std::min(num_threads, n));
  if (shards == 1) {
    body(0, 0, n);
    return;
  }
  const auto begin_of = [n, shards](int s) {
    return static_cast<int>(static_cast<long long>(s) * n / shards);
  };
  std::vector<std::exception_ptr> errors(shards);
  const auto run_shard = [&](int s) {
    try {
      body(s, begin_of(s), begin_of(s + 1));
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(shards - 1);
  for (int s = 1; s < shards; ++s) threads.emplace_back(run_shard, s);
  run_shard(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_PARALLEL_FOR_H_
