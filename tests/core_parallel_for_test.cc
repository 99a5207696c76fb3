#include "core/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace ctbus::core {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int n : {0, 1, 2, 7, 64, 1000}) {
    for (int threads : {1, 2, 3, 8, 64}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      ParallelFor(n, threads, [&](int /*shard*/, int begin, int end) {
        for (int i = begin; i < end; ++i) visits[i].fetch_add(1);
      });
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "n=" << n << " threads=" << threads
                                       << " index=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ShardsAreContiguousAndDeterministic) {
  const int n = 100;
  const int threads = 7;
  // Record each shard's range twice; the static partition must repeat.
  std::vector<std::pair<int, int>> first(threads, {-1, -1});
  std::vector<std::pair<int, int>> second(threads, {-1, -1});
  ParallelFor(n, threads, [&](int shard, int begin, int end) {
    first[shard] = {begin, end};
  });
  ParallelFor(n, threads, [&](int shard, int begin, int end) {
    second[shard] = {begin, end};
  });
  EXPECT_EQ(first, second);
  int covered = 0;
  for (int s = 0; s < threads; ++s) {
    EXPECT_EQ(first[s].first, covered);  // contiguous, in shard order
    EXPECT_LE(first[s].first, first[s].second);
    covered = first[s].second;
    // Balanced to within one element.
    EXPECT_GE(first[s].second - first[s].first, n / threads);
    EXPECT_LE(first[s].second - first[s].first, n / threads + 1);
  }
  EXPECT_EQ(covered, n);
}

TEST(ParallelForTest, MoreThreadsThanWorkClampsToOneIndexShards) {
  std::atomic<int> calls{0};
  ParallelFor(3, 16, [&](int /*shard*/, int begin, int end) {
    EXPECT_EQ(end - begin, 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  ParallelFor(10, 1, [&](int shard, int begin, int end) {
    EXPECT_EQ(shard, 0);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelForTest, FirstShardExceptionWinsAndWorkersJoin) {
  std::atomic<int> completed{0};
  try {
    ParallelFor(8, 4, [&](int shard, int /*begin*/, int /*end*/) {
      if (shard == 2) throw std::runtime_error("shard 2");
      if (shard == 1) throw std::runtime_error("shard 1");
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1");  // lowest throwing shard id
  }
  EXPECT_EQ(completed.load(), 2);  // the non-throwing shards all finished
}

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(5), 5);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-3), 1);
}

}  // namespace
}  // namespace ctbus::core
