#include "demand/ranked_list.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/rng.h"

namespace ctbus::demand {
namespace {

TEST(RankedListTest, EmptyList) {
  RankedList list;
  EXPECT_EQ(list.size(), 0);
  EXPECT_DOUBLE_EQ(list.ValueAtRank(0), 0.0);
  EXPECT_DOUBLE_EQ(list.TopSum(5), 0.0);
}

TEST(RankedListTest, RanksDescending) {
  RankedList list({3.0, 9.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(list.ValueAtRank(0), 9.0);
  EXPECT_DOUBLE_EQ(list.ValueAtRank(1), 5.0);
  EXPECT_DOUBLE_EQ(list.ValueAtRank(2), 3.0);
  EXPECT_DOUBLE_EQ(list.ValueAtRank(3), 1.0);
  EXPECT_EQ(list.EdgeAtRank(0), 1);
  EXPECT_EQ(list.EdgeAtRank(3), 2);
}

TEST(RankedListTest, ValueOfAndInTop) {
  RankedList list({3.0, 9.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(list.ValueOf(3), 5.0);
  EXPECT_TRUE(list.InTop(1, 1));   // rank 0
  EXPECT_FALSE(list.InTop(3, 1));  // rank 1
  EXPECT_TRUE(list.InTop(3, 2));
  EXPECT_FALSE(list.InTop(2, 3));  // rank 3
  EXPECT_TRUE(list.InTop(2, 4));
  EXPECT_FALSE(list.InTop(1, 0));
}

TEST(RankedListTest, TopSumPrefixes) {
  RankedList list({3.0, 9.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(list.TopSum(0), 0.0);
  EXPECT_DOUBLE_EQ(list.TopSum(1), 9.0);
  EXPECT_DOUBLE_EQ(list.TopSum(2), 14.0);
  EXPECT_DOUBLE_EQ(list.TopSum(4), 18.0);
  EXPECT_DOUBLE_EQ(list.TopSum(100), 18.0);  // saturates
}

TEST(RankedListTest, OutOfRangeRankIsZero) {
  RankedList list({1.0});
  EXPECT_DOUBLE_EQ(list.ValueAtRank(1), 0.0);
  EXPECT_DOUBLE_EQ(list.ValueAtRank(42), 0.0);
}

TEST(RankedListTest, TiesBrokenByEdgeId) {
  RankedList list({5.0, 5.0, 5.0});
  EXPECT_EQ(list.EdgeAtRank(0), 0);
  EXPECT_EQ(list.EdgeAtRank(1), 1);
  EXPECT_EQ(list.EdgeAtRank(2), 2);
}

TEST(RankedListTest, RankRoundTripProperty) {
  linalg::Rng rng(3);
  std::vector<double> scores(200);
  for (double& s : scores) s = rng.NextDouble(0, 1000);
  RankedList list(scores);
  std::vector<int> seen(200, 0);
  for (int r = 0; r < 200; ++r) {
    const int e = list.EdgeAtRank(r);
    ++seen[e];
    EXPECT_DOUBLE_EQ(list.ValueAtRank(r), scores[e]);
    EXPECT_TRUE(list.InTop(e, r + 1));
    EXPECT_FALSE(list.InTop(e, r));
  }
  EXPECT_EQ(seen, std::vector<int>(200, 1));  // a permutation
  for (int r = 0; r + 1 < 200; ++r) {
    EXPECT_GE(list.ValueAtRank(r), list.ValueAtRank(r + 1));
  }
}

// Scores drawn from a handful of values, so most edges tie with many
// others, plus the all-equal extreme.
std::vector<std::vector<double>> TiedScoreSets() {
  linalg::Rng rng(29);
  std::vector<std::vector<double>> sets;
  for (const int n : {1, 2, 7, 64, 300}) {
    for (const int levels : {1, 3, 10}) {
      std::vector<double> scores(n);
      for (double& s : scores) {
        s = 0.25 * static_cast<double>(rng.NextIndex(levels));
      }
      sets.push_back(scores);
    }
  }
  sets.push_back(std::vector<double>(50, 3.5));
  return sets;
}

// The comparison sort the radix sort must reproduce: Precedes' order.
std::vector<int> ComparisonOrder(const std::vector<double>& scores) {
  std::vector<int> order(scores.size());
  for (std::size_t e = 0; e < order.size(); ++e) order[e] = static_cast<int>(e);
  std::sort(order.begin(), order.end(), [&scores](int a, int b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  return order;
}

TEST(RankedListTest, OrderEqualsComparisonSort) {
  std::vector<std::vector<double>> sets = TiedScoreSets();
  // Signs, signed zeros, subnormals, infinities and wide magnitudes, where
  // a bit-pattern key could disagree with operator>.
  const double special[] = {-0.0,   0.0,     -1e-310, 1e-310,  -2.5,
                            2.5,    1e300,   -1e300,  INFINITY, -INFINITY,
                            1.0,    -1.0,    0.0,     -0.0,    3e-5};
  sets.emplace_back(std::begin(special), std::end(special));
  linalg::Rng rng(41);
  std::vector<double> mixed(500);
  for (double& s : mixed) {
    const double magnitude = std::ldexp(1.0, static_cast<int>(rng.NextIndex(80)) - 40);
    s = (rng.NextIndex(2) == 0 ? -1.0 : 1.0) *
        (rng.NextIndex(5) == 0 ? 0.0 : magnitude);
  }
  sets.push_back(mixed);
  for (const std::vector<double>& scores : sets) {
    const RankedList list(scores);
    const int n = list.size();
    SCOPED_TRACE("n " + std::to_string(n));
    const std::vector<int> expected = ComparisonOrder(scores);
    double sum = 0.0;
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(list.EdgeAtRank(r), expected[r]) << "rank " << r;
      EXPECT_EQ(list.ValueAtRank(r), scores[expected[r]]);
      // TopSum is summed in rank order.
      sum += scores[expected[r]];
      if (std::isfinite(sum)) EXPECT_EQ(list.TopSum(r + 1), sum);
    }
    EXPECT_EQ(list.ValueAtRank(n), 0.0);
  }
}

TEST(RankedListTest, InTopAgreesWithRank) {
  for (const std::vector<double>& scores : TiedScoreSets()) {
    const RankedList list(scores);
    const int n = list.size();
    std::vector<int> rank_of(n);
    for (int r = 0; r < n; ++r) rank_of[list.EdgeAtRank(r)] = r;
    for (const int k : {0, 1, 3, 12, n, n + 2}) {
      for (int e = 0; e < n; ++e) {
        EXPECT_EQ(list.InTop(e, k), rank_of[e] < k) << "e " << e << " k " << k;
      }
    }
  }
}

TEST(RankedListTest, PrecedesIsTheListOrder) {
  const RankedList list({2.0, 5.0, 2.0, 7.0});
  EXPECT_TRUE(list.Precedes(3, 1));
  EXPECT_TRUE(list.Precedes(0, 2));  // tie: lower id first
  EXPECT_FALSE(list.Precedes(2, 0));
  EXPECT_FALSE(list.Precedes(0, 0));
}

TEST(RankedListTest, ApproxBytesChargesScoresOrderAndPrefixes) {
  const RankedList list(std::vector<double>(100, 1.0));
  EXPECT_EQ(list.ApproxBytes(), sizeof(RankedList) + 100 * sizeof(double) +
                                    100 * sizeof(int) + 101 * sizeof(double));
}

}  // namespace
}  // namespace ctbus::demand
