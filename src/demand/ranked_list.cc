#include "demand/ranked_list.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

namespace ctbus::demand {

namespace {

// A key whose unsigned order is the descending order of `score`: the
// IEEE-754 bits made monotone (negative values flipped whole, positive
// ones with the sign bit set), then inverted. -0.0 and 0.0 compare equal,
// so they share the key of 0.0.
std::uint64_t DescendingKey(double score) {
  if (score == 0.0) score = 0.0;
  std::uint64_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  bits = (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
  return ~bits;
}

}  // namespace

RankedList::RankedList(std::vector<double> scores)
    : scores_(std::move(scores)) {
  const int n = size();
  // LSD radix sort of (key, edge) pairs, 8 bits per pass, starting from
  // ascending edge ids. Each pass is stable, so equal scores stay in id
  // order: the result is Precedes' order. A pass whose digit is the same
  // for every key moves nothing and is skipped.
  std::vector<std::uint64_t> keys(n), keys_out(n);
  std::vector<int> edges(n), edges_out(n);
  for (int e = 0; e < n; ++e) keys[e] = DescendingKey(scores_[e]);
  std::iota(edges.begin(), edges.end(), 0);
  for (int shift = 0; shift < 64 && n > 1; shift += 8) {
    std::array<int, 257> start{};
    for (const std::uint64_t key : keys) ++start[((key >> shift) & 0xff) + 1];
    if (start[((keys[0] >> shift) & 0xff) + 1] == n) continue;
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (int i = 0; i < n; ++i) {
      const int slot = start[(keys[i] >> shift) & 0xff]++;
      keys_out[slot] = keys[i];
      edges_out[slot] = edges[i];
    }
    keys.swap(keys_out);
    edges.swap(edges_out);
  }
  order_ = std::move(edges);
  prefix_.resize(n + 1);
  prefix_[0] = 0.0;
  for (int rank = 0; rank < n; ++rank) {
    prefix_[rank + 1] = prefix_[rank] + scores_[order_[rank]];
  }
}

double RankedList::ValueAtRank(int rank) const {
  assert(rank >= 0);
  if (rank >= size()) return 0.0;
  return scores_[order_[rank]];
}

bool RankedList::InTop(int edge, int count) const {
  assert(count >= 0);
  if (count >= size()) return true;
  if (count == 0) return false;
  // Precedes is total: the edge is in the top `count` unless the
  // count-th best edge ranks before it.
  return !Precedes(order_[count - 1], edge);
}

double RankedList::TopSum(int count) const {
  assert(count >= 0);
  return prefix_[std::min(count, size())];
}

}  // namespace ctbus::demand
