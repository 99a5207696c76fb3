#include "service/precompute_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/options.h"

namespace ctbus::service {
namespace {

PrecomputeKey Key(const std::string& dataset, std::uint64_t version,
                  double tau = 500.0) {
  core::CtBusOptions options;
  options.tau = tau;
  return MakePrecomputeKey(dataset, version, options);
}

/// A recognizable fake precompute: `tag` is stored in the increments.
core::Precompute FakePrecompute(double tag) {
  core::Precompute pre;
  pre.increments = {tag};
  return pre;
}

/// A fake precompute with a controllable ApproxBytes footprint.
core::Precompute FakePrecomputeOfSize(double tag, std::size_t doubles) {
  core::Precompute pre;
  pre.increments.assign(doubles, tag);
  return pre;
}

/// ApproxBytes of a FakePrecomputeOfSize(_, doubles) value.
std::size_t BytesOf(std::size_t doubles) {
  return FakePrecomputeOfSize(0.0, doubles).ApproxBytes();
}

TEST(PrecomputeCacheTest, MissComputesThenHitReuses) {
  PrecomputeCache cache(4);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return FakePrecompute(7.0);
  };
  bool hit = true;
  const auto first = cache.GetOrCompute(Key("a", 1), compute, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(computes, 1);
  ASSERT_EQ(first->increments.size(), 1u);
  EXPECT_EQ(first->increments[0], 7.0);

  const auto second = cache.GetOrCompute(Key("a", 1), compute, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);          // not recomputed
  EXPECT_EQ(second.get(), first.get());  // same shared object

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PrecomputeCacheTest, DistinctKeysAreDistinctEntries) {
  PrecomputeCache cache(8);
  // Same dataset, different version / tau => different entries.
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecompute(1.0); });
  cache.GetOrCompute(Key("a", 2), [] { return FakePrecompute(2.0); });
  cache.GetOrCompute(Key("a", 1, /*tau=*/750.0),
                     [] { return FakePrecompute(3.0); });
  cache.GetOrCompute(Key("b", 1), [] { return FakePrecompute(4.0); });
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
  const auto a1 = cache.GetOrCompute(Key("a", 1), [] {
    ADD_FAILURE() << "should have been cached";
    return FakePrecompute(0.0);
  });
  EXPECT_EQ(a1->increments[0], 1.0);
}

TEST(PrecomputeCacheTest, LruEvictionOrder) {
  PrecomputeCache cache(2);
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecompute(1.0); });
  cache.GetOrCompute(Key("b", 1), [] { return FakePrecompute(2.0); });
  // Touch "a": it becomes most recently used, "b" is now the LRU victim.
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecompute(0.0); });
  cache.GetOrCompute(Key("c", 1), [] { return FakePrecompute(3.0); });

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(Key("a", 1)));
  EXPECT_FALSE(cache.Contains(Key("b", 1)));
  EXPECT_TRUE(cache.Contains(Key("c", 1)));
  EXPECT_EQ(cache.stats().evictions, 1u);

  const auto keys = cache.KeysByRecency();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].dataset, "c");  // most recent
  EXPECT_EQ(keys[1].dataset, "a");

  // Evicted key recomputes.
  int computes = 0;
  cache.GetOrCompute(Key("b", 1), [&] {
    ++computes;
    return FakePrecompute(2.0);
  });
  EXPECT_EQ(computes, 1);
}

TEST(PrecomputeCacheTest, CapacityZeroDisablesCaching) {
  PrecomputeCache cache(0);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return FakePrecompute(5.0);
  };
  bool hit = true;
  const auto first = cache.GetOrCompute(Key("a", 1), compute, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.GetOrCompute(Key("a", 1), compute, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(computes, 2);  // every call recomputes
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(Key("a", 1)));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PrecomputeCacheTest, ConcurrentSameKeyComputesOnce) {
  PrecomputeCache cache(4);
  std::atomic<int> computes{0};
  const auto compute = [&] {
    computes.fetch_add(1);
    // Widen the race window a little.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return FakePrecompute(9.0);
  };
  std::vector<std::thread> threads;
  std::vector<double> seen(4, 0.0);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      seen[i] = cache.GetOrCompute(Key("a", 1), compute)->increments[0];
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);  // in-flight misses deduplicated
  for (double v : seen) EXPECT_EQ(v, 9.0);
}

TEST(PrecomputeCacheTest, ReadySiblingsFindsOtherVersionsOfSameParams) {
  PrecomputeCache cache(8);
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecompute(1.0); });
  cache.GetOrCompute(Key("a", 3), [] { return FakePrecompute(3.0); });
  cache.GetOrCompute(Key("a", 2), [] { return FakePrecompute(2.0); });
  cache.GetOrCompute(Key("a", 2, /*tau=*/750.0),
                     [] { return FakePrecompute(9.0); });  // different params
  cache.GetOrCompute(Key("b", 1), [] { return FakePrecompute(9.0); });

  // Siblings of ("a", version 4): versions 3, 2, 1 — descending, own
  // version excluded, other tau / dataset excluded.
  const auto siblings = cache.ReadySiblings(Key("a", 4));
  ASSERT_EQ(siblings.size(), 3u);
  EXPECT_EQ(siblings[0].first, 3u);
  EXPECT_EQ(siblings[1].first, 2u);
  EXPECT_EQ(siblings[2].first, 1u);
  EXPECT_EQ(siblings[0].second->increments[0], 3.0);

  // The probed version itself is never its own donor.
  const auto for_v2 = cache.ReadySiblings(Key("a", 2));
  ASSERT_EQ(for_v2.size(), 2u);
  EXPECT_EQ(for_v2[0].first, 3u);
  EXPECT_EQ(for_v2[1].first, 1u);
}

TEST(PrecomputeCacheTest, ReadySiblingsExcludesInFlightEntries) {
  PrecomputeCache cache(8);
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecompute(1.0); });
  std::atomic<bool> release{false};
  std::thread slow([&] {
    cache.GetOrCompute(Key("a", 2), [&] {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return FakePrecompute(2.0);
    });
  });
  while (!cache.Contains(Key("a", 2))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Version 2 is resident but still computing: not a usable donor.
  const auto siblings = cache.ReadySiblings(Key("a", 3));
  ASSERT_EQ(siblings.size(), 1u);
  EXPECT_EQ(siblings[0].first, 1u);
  release.store(true);
  slow.join();
  const auto after = cache.ReadySiblings(Key("a", 3));
  EXPECT_EQ(after.size(), 2u);
}

TEST(PrecomputeCacheTest, ClearEmptiesTheCache) {
  PrecomputeCache cache(4);
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecompute(1.0); });
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(Key("a", 1)));
}

TEST(PrecomputeCacheTest, NegativeZeroTauIsTheSameKey) {
  // operator== on doubles treats -0.0 == 0.0, so the hash must agree too
  // (the unordered_map invariant); io::MakeProvenance normalizes the sign
  // away. Regression: a -0.0 tau could silently duplicate cache entries.
  const PrecomputeKey plus = Key("a", 1, /*tau=*/0.0);
  const PrecomputeKey minus = Key("a", 1, /*tau=*/-0.0);
  EXPECT_TRUE(plus == minus);
  EXPECT_EQ(PrecomputeKeyHash()(plus), PrecomputeKeyHash()(minus));
  EXPECT_FALSE(std::signbit(minus.provenance.tau));  // stored normalized

  PrecomputeCache cache(4);
  int computes = 0;
  cache.GetOrCompute(plus, [&] {
    ++computes;
    return FakePrecompute(1.0);
  });
  bool hit = false;
  const auto value = cache.GetOrCompute(
      minus,
      [&] {
        ++computes;
        return FakePrecompute(2.0);
      },
      &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(value->increments[0], 1.0);
}

TEST(PrecomputeCacheTest, NanTauIsRejectedAtKeyConstruction) {
  // A NaN key would never equal itself, so every lookup would miss and
  // insert a fresh never-matching entry; the check must hold in NDEBUG
  // builds too (it is a throw, not an assert).
  core::CtBusOptions options;
  options.tau = std::nan("");
  EXPECT_THROW(MakePrecomputeKey("a", 1, options), std::invalid_argument);
}

TEST(PrecomputeCacheTest, ThreadCountKnobsStayOutOfTheKey) {
  // The precompute is bit-identical at any precompute_threads, so
  // requests differing only in it must share one cache entry.
  core::CtBusOptions serial;
  core::CtBusOptions threaded;
  threaded.precompute_threads = 8;
  const PrecomputeKey a = MakePrecomputeKey("a", 1, serial);
  const PrecomputeKey b = MakePrecomputeKey("a", 1, threaded);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(PrecomputeKeyHash()(a), PrecomputeKeyHash()(b));
}

TEST(PrecomputeCacheTest, WaiterSeesMissComputeExceptionAndEntryIsErased) {
  PrecomputeCache cache(4);
  const PrecomputeKey key = Key("a", 1);
  int failing_computes = 0;

  std::thread owner([&] {
    EXPECT_THROW(
        cache.GetOrCompute(key,
                           [&]() -> core::Precompute {
                             ++failing_computes;
                             // Hold the miss open until the concurrent
                             // caller has latched onto the in-flight entry
                             // (its hit is recorded before it blocks on
                             // the shared future).
                             while (cache.stats().hits == 0) {
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(1));
                             }
                             throw std::runtime_error("precompute exploded");
                           }),
        std::runtime_error);
  });

  // Become the blocked waiter: wait for the in-flight entry, then join it.
  while (!cache.Contains(key)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool hit = false;
  int never_run = 0;
  EXPECT_THROW(cache.GetOrCompute(key,
                                  [&] {
                                    ++never_run;
                                    return FakePrecompute(0.0);
                                  },
                                  &hit),
               std::runtime_error);
  owner.join();
  EXPECT_TRUE(hit);  // the waiter joined the in-flight compute...
  EXPECT_EQ(never_run, 0);
  EXPECT_EQ(failing_computes, 1);

  // ...but the poisoned entry was erased, so the next call recomputes
  // cleanly instead of replaying the stored exception forever.
  EXPECT_FALSE(cache.Contains(key));
  EXPECT_EQ(cache.size(), 0u);
  bool recompute_hit = true;
  const auto value = cache.GetOrCompute(
      key, [] { return FakePrecompute(9.0); }, &recompute_hit);
  EXPECT_FALSE(recompute_hit);
  ASSERT_EQ(value->increments.size(), 1u);
  EXPECT_EQ(value->increments[0], 9.0);
  EXPECT_TRUE(cache.Contains(key));
}

TEST(PrecomputeCacheBytesTest, ByteBudgetEvictsLruTailFirst) {
  // Budget fits one 100-double entry plus change, never two.
  const std::size_t entry_bytes = BytesOf(100);
  PrecomputeCache cache(/*capacity=*/8, /*max_bytes=*/entry_bytes +
                                            entry_bytes / 2);
  cache.GetOrCompute(Key("a", 1),
                     [] { return FakePrecomputeOfSize(1.0, 100); });
  EXPECT_EQ(cache.resident_bytes(), entry_bytes);
  cache.GetOrCompute(Key("a", 2),
                     [] { return FakePrecomputeOfSize(2.0, 100); });
  // The older entry went; the newer (MRU) one stays.
  EXPECT_FALSE(cache.Contains(Key("a", 1)));
  EXPECT_TRUE(cache.Contains(Key("a", 2)));
  EXPECT_EQ(cache.resident_bytes(), entry_bytes);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evicted_bytes, entry_bytes);
  EXPECT_EQ(stats.resident_bytes, entry_bytes);
}

TEST(PrecomputeCacheBytesTest,
     EntryLargerThanTheWholeBudgetIsAdmittedUntilTheNextInsert) {
  // The satellite edge case: a budget smaller than a single entry. The
  // entry must still be admitted (and serve hits) — an empty cache would
  // otherwise thrash forever — and is evicted only when the next insert
  // displaces it from the MRU slot.
  PrecomputeCache cache(/*capacity=*/8, /*max_bytes=*/1);
  int computes = 0;
  cache.GetOrCompute(Key("a", 1), [&] {
    ++computes;
    return FakePrecomputeOfSize(1.0, 50);
  });
  EXPECT_TRUE(cache.Contains(Key("a", 1)));  // admitted despite the budget
  bool hit = false;
  cache.GetOrCompute(
      Key("a", 1),
      [&] {
        ++computes;
        return FakePrecomputeOfSize(1.0, 50);
      },
      &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);

  cache.GetOrCompute(Key("a", 2),
                     [] { return FakePrecomputeOfSize(2.0, 50); });
  EXPECT_FALSE(cache.Contains(Key("a", 1)));  // evicted on the next insert
  EXPECT_TRUE(cache.Contains(Key("a", 2)));   // new MRU survives over-budget
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PrecomputeCacheBytesTest, BytePressureNeverEvictsInFlightEntries) {
  // An in-flight entry must survive any byte pressure: evicting it would
  // break the same-key miss dedup (waiters hold its shared_future).
  PrecomputeCache cache(/*capacity=*/8, /*max_bytes=*/1);
  std::atomic<bool> release{false};
  std::thread slow([&] {
    cache.GetOrCompute(Key("a", 1), [&] {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return FakePrecomputeOfSize(1.0, 50);
    });
  });
  while (!cache.Contains(Key("a", 1))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Ready inserts land and evict each other, but never the in-flight one.
  cache.GetOrCompute(Key("a", 2),
                     [] { return FakePrecomputeOfSize(2.0, 50); });
  cache.GetOrCompute(Key("a", 3),
                     [] { return FakePrecomputeOfSize(3.0, 50); });
  EXPECT_TRUE(cache.Contains(Key("a", 1)));
  // The dedup still pays off: a second caller joins the in-flight miss.
  bool hit = false;
  std::thread waiter([&] {
    const auto value = cache.GetOrCompute(
        Key("a", 1), [] { return FakePrecomputeOfSize(9.0, 1); }, &hit);
    EXPECT_EQ(value->increments[0], 1.0);
  });
  while (cache.stats().hits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true);
  slow.join();
  waiter.join();
  EXPECT_TRUE(hit);
}

TEST(PrecomputeCacheBytesTest, CountCapacityStaysASecondaryLimit) {
  // A generous byte budget does not loosen the entry-count capacity.
  PrecomputeCache cache(/*capacity=*/1, /*max_bytes=*/BytesOf(1000));
  cache.GetOrCompute(Key("a", 1), [] { return FakePrecomputeOfSize(1.0, 2); });
  cache.GetOrCompute(Key("a", 2), [] { return FakePrecomputeOfSize(2.0, 2); });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Contains(Key("a", 1)));
  EXPECT_TRUE(cache.Contains(Key("a", 2)));
}

TEST(PrecomputeCacheBytesTest, ClearResetsResidentBytes) {
  PrecomputeCache cache(/*capacity=*/4, /*max_bytes=*/0);  // unlimited bytes
  cache.GetOrCompute(Key("a", 1),
                     [] { return FakePrecomputeOfSize(1.0, 10); });
  cache.GetOrCompute(Key("a", 2),
                     [] { return FakePrecomputeOfSize(2.0, 20); });
  EXPECT_EQ(cache.resident_bytes(), BytesOf(10) + BytesOf(20));
  cache.Clear();
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

}  // namespace
}  // namespace ctbus::service
