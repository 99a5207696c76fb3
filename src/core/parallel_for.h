// Deterministic fork-join parallelism for the planner hot loops.
//
// WorkerPool statically partitions [0, n) into min(num_threads, n)
// contiguous shards and runs one worker per shard over *persistent*
// threads. The partition depends only on (n, num_threads) — never on
// scheduling — so a caller that gives every shard its own scratch state
// (estimator, adjacency copy) and writes each result into its own slot
// gets output that is bit-identical to a serial run, at any thread count.
// Persistence matters for loops that fork thousands of times with small n:
// ETA's per-frontier candidate evaluation forks once per popped queue
// entry, so paying a thread spawn per fork would drown the win.
//
// ParallelFor is the one-shot convenience wrapper (spawn, run, join) used
// by PlanningContext::RunPrecompute's Delta(e) loop; it is implemented AS
// a throwaway WorkerPool, so the two partitions (and the determinism
// contract, see docs/PRECOMPUTE.md) can never drift apart.
#ifndef CTBUS_CORE_PARALLEL_FOR_H_
#define CTBUS_CORE_PARALLEL_FOR_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace ctbus::core {

/// Resolves a user-facing thread-count knob: values >= 1 pass through,
/// anything else (0 or negative) means std::thread::hardware_concurrency()
/// (minimum 1). Mirrors ServiceOptions::num_threads semantics.
inline int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw >= 1 ? hw : 1;
}

/// Persistent fork-join pool. Construction spawns `num_threads - 1` parked
/// threads; each Run costs two condvar round-trips instead of a thread
/// spawn per shard.
///
/// Run(n, body) partitions [0, n) into S = min(num_threads, n) contiguous
/// shards: shard s covers [s*n/S, (s+1)*n/S) — every index exactly once,
/// shards within 1 of equal size. The calling thread executes shard 0 and
/// pool thread s-1 executes shard s, so shard ids are stable across Runs
/// and a caller may key long-lived per-shard scratch state (such as
/// scratch matrices) off them. Exceptions thrown by shards are
/// captured; after every shard finished, the lowest shard id's exception
/// is rethrown on the calling thread.
///
/// Run is fork-join for ONE caller at a time: it must not be invoked
/// concurrently from two threads, nor reentrantly from inside a body.
class WorkerPool {
 public:
  explicit WorkerPool(int num_threads)
      : num_threads_(num_threads < 1 ? 1 : num_threads) {
    threads_.reserve(num_threads_ - 1);
    for (int s = 1; s < num_threads_; ++s) {
      threads_.emplace_back([this, s] { WorkerLoop(s); });
    }
  }

  ~WorkerPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// See the class comment. `num_threads <= 1` or `n <= 1` degenerates to
  /// a plain inline loop with no synchronization at all.
  void Run(int n,
           const std::function<void(int shard, int begin, int end)>& body)
      CTBUS_EXCLUDES(mu_) {
    if (n <= 0) return;
    const int shards = std::min(num_threads_, n);
    if (shards == 1) {
      body(0, 0, n);
      return;
    }
    {
      MutexLock lock(mu_);
      body_ = &body;
      n_ = n;
      shards_ = shards;
      pending_ = shards - 1;
      error_shard_ = shards;
      error_ = nullptr;
      ++epoch_;
    }
    work_cv_.NotifyAll();
    RunShard(/*shard=*/0, n, shards, body);
    std::exception_ptr error;
    {
      MutexLock lock(mu_);
      while (pending_ != 0) done_cv_.Wait(mu_);
      body_ = nullptr;
      error = error_;
      error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  static int ShardBegin(int s, int n, int shards) {
    return static_cast<int>(static_cast<long long>(s) * n / shards);
  }

  /// Executes shard `shard` of the current job, recording the first (by
  /// shard id) exception. Does not touch pending_ — callers account for
  /// completion themselves.
  void RunShard(int shard, int n, int shards,
                const std::function<void(int, int, int)>& body)
      CTBUS_EXCLUDES(mu_) {
    try {
      body(shard, ShardBegin(shard, n, shards),
           ShardBegin(shard + 1, n, shards));
    } catch (...) {
      MutexLock lock(mu_);
      if (shard < error_shard_) {
        error_shard_ = shard;
        error_ = std::current_exception();
      }
    }
  }

  void WorkerLoop(int slot) CTBUS_EXCLUDES(mu_) {
    std::uint64_t seen_epoch = 0;
    while (true) {
      int n = 0;
      int shards = 0;
      const std::function<void(int, int, int)>* body = nullptr;
      {
        MutexLock lock(mu_);
        while (!stop_ && epoch_ == seen_epoch) work_cv_.Wait(mu_);
        if (stop_) return;
        seen_epoch = epoch_;
        n = n_;
        shards = shards_;
        body = body_;
      }
      // Thread `slot` owns shard `slot`; with fewer shards than threads it
      // sits this Run out (and did not count toward pending_).
      if (slot >= shards) continue;
      RunShard(slot, n, shards, *body);
      {
        MutexLock lock(mu_);
        if (--pending_ == 0) done_cv_.NotifyAll();
      }
    }
  }

  const int num_threads_;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  bool stop_ CTBUS_GUARDED_BY(mu_) = false;
  std::uint64_t epoch_ CTBUS_GUARDED_BY(mu_) = 0;  // bumps per Run
  int n_ CTBUS_GUARDED_BY(mu_) = 0;
  int shards_ CTBUS_GUARDED_BY(mu_) = 0;
  int pending_ CTBUS_GUARDED_BY(mu_) = 0;
  int error_shard_ CTBUS_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ CTBUS_GUARDED_BY(mu_);
  const std::function<void(int, int, int)>* body_ CTBUS_GUARDED_BY(mu_) =
      nullptr;
};

/// One-shot fork-join over a throwaway WorkerPool: identical partition,
/// shard-0-on-caller, and exception semantics (see WorkerPool). Spawns
/// min(num_threads, n) - 1 threads for the single Run, so `num_threads <=
/// 1` (or n <= 1) degenerates to a plain inline loop with no thread spawn.
inline void ParallelFor(int n, int num_threads,
                        const std::function<void(int shard, int begin,
                                                 int end)>& body) {
  if (n <= 0) return;
  WorkerPool pool(std::min(num_threads, n));
  pool.Run(n, body);
}

}  // namespace ctbus::core

#endif  // CTBUS_CORE_PARALLEL_FOR_H_
