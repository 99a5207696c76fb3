// linalg::ParallelFor's contract: every index runs exactly once on a
// worker id below the width, the caller takes part, the parked helpers are
// reused across calls (no call spawns a thread once its helpers exist),
// concurrent callers never block one another, and the lowest throwing
// index's exception is rethrown. The TSan job repeats this binary.
#include "linalg/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ctbus::linalg {
namespace {

// A number per thread that is never reused, unlike std::thread::id, which
// a thread started after another one ended may inherit.
int ThreadToken() {
  static std::atomic<int> next{0};
  thread_local const int token = next.fetch_add(1);
  return token;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int n : {0, 1, 2, 7, 64, 1000}) {
    for (int threads : {1, 2, 3, 8, 64}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      ParallelFor(n, threads, [&](int /*worker*/, int begin, int end) {
        for (int i = begin; i < end; ++i) visits[i].fetch_add(1);
      });
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "n=" << n << " threads=" << threads
                                       << " index=" << i;
      }
    }
  }
}

TEST(ParallelForTest, WorkerIdsAreDistinctAndBelowTheWidth) {
  const int n = 200;
  for (int threads : {2, 3, 7}) {
    // Which thread held each worker id; a second thread on one id, or an
    // id at or past the width, breaks per-worker scratch.
    std::vector<std::atomic<int>> holder(threads);
    for (auto& h : holder) h.store(-1);
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v.store(0);
    std::atomic<bool> clash{false};
    ParallelFor(n, threads, [&](int worker, int begin, int end) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      EXPECT_EQ(end - begin, 1);
      int expected = -1;
      if (!holder[worker].compare_exchange_strong(expected, ThreadToken()) &&
          expected != ThreadToken()) {
        clash.store(true);
      }
      for (int i = begin; i < end; ++i) visits[i].fetch_add(1);
    });
    EXPECT_FALSE(clash.load()) << "threads=" << threads;
    // The caller is worker 0 (unless helpers claimed every index first).
    EXPECT_TRUE(holder[0].load() == -1 || holder[0].load() == ThreadToken());
    for (int i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  }
}

TEST(ParallelForTest, MoreThreadsThanWorkClampsTheWidth) {
  std::atomic<int> calls{0};
  ParallelFor(3, 16, [&](int worker, int begin, int end) {
    EXPECT_LT(worker, 3);
    EXPECT_EQ(end - begin, 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  ParallelFor(10, 1, [&](int worker, int begin, int end) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelForTest, HelpersAreReusedAcrossCalls) {
  // Width 3 is served by the caller and helpers 0 and 1 alone, whatever
  // wider calls started earlier: across 200 calls, at most two other
  // threads ever run an index, so no call spawned one.
  std::mutex mu;
  std::set<int> helpers;
  const int caller = ThreadToken();
  for (int call = 0; call < 200; ++call) {
    ParallelFor(6, 3, [&](int /*worker*/, int /*begin*/, int /*end*/) {
      const int token = ThreadToken();
      if (token == caller) return;
      std::lock_guard<std::mutex> lock(mu);
      helpers.insert(token);
    });
  }
  EXPECT_LE(helpers.size(), 2u);
}

TEST(ParallelForTest, ConcurrentCallersEachCoverEveryIndexOnce) {
  constexpr int kCallers = 2;
  constexpr int kN = 500;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<int>>> visits(kCallers);
  for (auto& v : visits) {
    v = std::vector<std::atomic<int>>(kN);
    for (auto& x : v) x.store(0);
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        ParallelFor(kN, 3, [&](int /*worker*/, int begin, int end) {
          for (int i = begin; i < end; ++i) visits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[c][i].load(), kRounds) << "caller " << c << " " << i;
    }
  }
}

TEST(ParallelForTest, CallerFinishesAloneWhileItsHelperIsStuck) {
  // A width-2 call holds helper 0 in a long index; another width-2 call
  // (whose only helper is that one) must not wait for it: its caller runs
  // every index itself.
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    ParallelFor(2, 2, [&](int /*worker*/, int /*begin*/, int /*end*/) {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  // Both indices are held: one by the blocker's caller, one by helper 0.
  while (started.load() < 2) std::this_thread::yield();

  const int caller = ThreadToken();
  std::vector<int> ran_on(50, -1);
  ParallelFor(50, 2, [&](int worker, int begin, int end) {
    EXPECT_EQ(worker, 0);
    for (int i = begin; i < end; ++i) ran_on[i] = ThreadToken();
  });
  for (int token : ran_on) EXPECT_EQ(token, caller);

  release.store(true);
  blocker.join();
}

TEST(ParallelForTest, LowestThrowingIndexWinsAndEveryIndexRuns) {
  std::atomic<int> completed{0};
  try {
    ParallelFor(8, 4, [&](int /*worker*/, int begin, int /*end*/) {
      if (begin == 5) throw std::runtime_error("index 5");
      if (begin == 2) throw std::runtime_error("index 2");
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 2");  // lowest throwing index
  }
  EXPECT_EQ(completed.load(), 6);  // the non-throwing indices all ran
}

TEST(ParallelForTest, NestedCallsFinish) {
  std::vector<std::atomic<int>> visits(4 * 16);
  for (auto& v : visits) v.store(0);
  ParallelFor(4, 3, [&](int /*worker*/, int outer, int /*end*/) {
    ParallelFor(16, 3, [&](int /*worker*/, int begin, int end) {
      for (int i = begin; i < end; ++i) visits[outer * 16 + i].fetch_add(1);
    });
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(5), 5);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-3), 1);
}

}  // namespace
}  // namespace ctbus::linalg
