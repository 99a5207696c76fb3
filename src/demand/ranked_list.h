// Descending ranked score lists over plannable edges: L_d (demand), L_lambda
// (connectivity increment), and L_e (integrated objective) from Sections 4-6
// of the paper. Provides the L(i) / L[e] / prefix-sum accessors that the
// initialization and the incremental bound of Algorithm 2 are written in
// terms of.
#ifndef CTBUS_DEMAND_RANKED_LIST_H_
#define CTBUS_DEMAND_RANKED_LIST_H_

#include <cstddef>
#include <vector>

namespace ctbus::demand {

/// Immutable descending ranking of edges by score: higher score first, ties
/// to the lower edge id. Edge ids must be dense 0-based indices into the
/// score vector supplied at construction; scores must not be NaN.
class RankedList {
 public:
  RankedList() : RankedList(std::vector<double>{}) {}

  /// Builds the ranking; scores[e] is the score of edge e. O(size()): a
  /// least-significant-digit radix sort over the scores' bit patterns,
  /// stable over ascending edge ids, so ties keep Precedes' order.
  explicit RankedList(std::vector<double> scores);

  int size() const { return static_cast<int>(scores_.size()); }

  /// True if edge `a` ranks before edge `b`: a higher score, or an equal
  /// score and a lower id. The list's order.
  bool Precedes(int a, int b) const {
    return scores_[a] != scores_[b] ? scores_[a] > scores_[b] : a < b;
  }

  /// Score of the i-th best edge, 0-based (the paper's L(i+1)).
  /// Out-of-range ranks score 0 (an exhausted list contributes nothing).
  double ValueAtRank(int rank) const;

  /// Edge id holding the i-th best score, 0-based. Requires a valid rank.
  int EdgeAtRank(int rank) const { return order_[rank]; }

  /// Score of edge e (the paper's L[e]).
  double ValueOf(int edge) const { return scores_[edge]; }

  /// True if edge e ranks among the top `count` (its 0-based rank is
  /// < count). O(1): one comparison against the count-th edge.
  bool InTop(int edge, int count) const;

  /// Sum of the top `count` scores in rank order: the paper's
  /// sum_{i=1..k} L(i). Counts beyond size() saturate.
  double TopSum(int count) const;

  /// Approximate resident footprint in bytes (scores, order and prefix
  /// sums). Deterministic, O(1).
  std::size_t ApproxBytes() const {
    return sizeof(RankedList) + scores_.size() * sizeof(double) +
           order_.size() * sizeof(int) + prefix_.size() * sizeof(double);
  }

 private:
  std::vector<double> scores_;
  std::vector<int> order_;       // order_[rank] = edge
  std::vector<double> prefix_;   // prefix_[i] = sum of top i scores
};

}  // namespace ctbus::demand

#endif  // CTBUS_DEMAND_RANKED_LIST_H_
