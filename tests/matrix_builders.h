// Test-side builders for linalg::SymmetricSparseMatrix, which is built once
// from an entry list: unit-weight matrices from stop pairs, a matrix plus
// extra edges, and the random graphs the linalg and connectivity tests draw.
#ifndef CTBUS_TESTS_MATRIX_BUILDERS_H_
#define CTBUS_TESTS_MATRIX_BUILDERS_H_

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::testutil {

/// Unit-weight matrix on the listed stop pairs (each pair once).
inline linalg::SymmetricSparseMatrix FromPairs(
    int n, const std::vector<std::pair<int, int>>& pairs) {
  std::vector<linalg::SymmetricSparseMatrix::Triplet> entries;
  entries.reserve(pairs.size());
  for (const auto& [u, v] : pairs) entries.push_back({u, v, 1.0});
  return linalg::SymmetricSparseMatrix(n, entries);
}

/// `a` plus unit-weight entries on `added`, none of them already in `a`.
inline linalg::SymmetricSparseMatrix WithEdges(
    const linalg::SymmetricSparseMatrix& a,
    const std::vector<std::pair<int, int>>& added) {
  std::vector<linalg::SymmetricSparseMatrix::Triplet> entries;
  for (int u = 0; u < a.dim(); ++u) {
    for (const auto& e : a.Row(u)) {
      if (u < e.col) entries.push_back({u, e.col, e.value});
    }
  }
  for (const auto& [u, v] : added) entries.push_back({u, v, 1.0});
  return linalg::SymmetricSparseMatrix(a.dim(), entries);
}

/// n * avg_degree / 2 uniform draws of a stop pair; a self-pair is skipped,
/// every other draw takes `weight(rng)` and a repeated pair keeps its last
/// weight.
template <typename Weight>
linalg::SymmetricSparseMatrix RandomGraph(int n, double avg_degree,
                                          linalg::Rng* rng, Weight weight) {
  std::map<std::pair<int, int>, double> pairs;
  const int edges = static_cast<int>(n * avg_degree / 2.0);
  for (int i = 0; i < edges; ++i) {
    const int u = static_cast<int>(rng->NextIndex(n));
    const int v = static_cast<int>(rng->NextIndex(n));
    if (u != v) pairs[{std::min(u, v), std::max(u, v)}] = weight(rng);
  }
  std::vector<linalg::SymmetricSparseMatrix::Triplet> entries;
  entries.reserve(pairs.size());
  for (const auto& [pair, value] : pairs) {
    entries.push_back({pair.first, pair.second, value});
  }
  return linalg::SymmetricSparseMatrix(n, entries);
}

/// The unit-weight random graph.
inline linalg::SymmetricSparseMatrix RandomGraph(int n, double avg_degree,
                                                 linalg::Rng* rng) {
  return RandomGraph(n, avg_degree, rng, [](linalg::Rng*) { return 1.0; });
}

}  // namespace ctbus::testutil

#endif  // CTBUS_TESTS_MATRIX_BUILDERS_H_
