#include "connectivity/local_increment.h"

#include <algorithm>
#include <cmath>

#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"

namespace ctbus::connectivity {

namespace {

bool IsStaged(const std::vector<std::pair<int, int>>& staged, int u, int v) {
  for (const auto& [a, b] : staged) {
    if ((a == u && b == v) || (a == v && b == u)) return true;
  }
  return false;
}

/// Calls visit(neighbor, value) for every neighbor of `x` in base + staged.
template <typename Visit>
void ForEachNeighbor(const linalg::SymmetricSparseMatrix& base,
                     const std::vector<std::pair<int, int>>& staged, int x,
                     Visit visit) {
  for (const linalg::SymmetricSparseMatrix::Entry& e : base.Row(x)) {
    visit(e.col, e.value);
  }
  for (const auto& [a, b] : staged) {
    if (a == x) visit(b, 1.0);
    if (b == x) visit(a, 1.0);
  }
}

}  // namespace

double LocalTraceIncrement(const linalg::SymmetricSparseMatrix& base,
                           const std::vector<std::pair<int, int>>& staged,
                           int u, int v) {
  if (u == v || base.Contains(u, v) || IsStaged(staged, u, v)) return 0.0;

  // Breadth-first ball of radius kLocalIncrementRadius around {u, v}.
  std::vector<char> in_ball(base.dim(), 0);
  std::vector<int> ball = {u, v};
  in_ball[u] = in_ball[v] = 1;
  std::size_t layer_begin = 0;
  for (int hop = 0; hop < kLocalIncrementRadius; ++hop) {
    const std::size_t layer_end = ball.size();
    for (std::size_t i = layer_begin; i < layer_end; ++i) {
      ForEachNeighbor(base, staged, ball[i], [&](int y, double) {
        if (!in_ball[y]) {
          in_ball[y] = 1;
          ball.push_back(y);
        }
      });
    }
    layer_begin = layer_end;
  }

  // Canonical order: the dense matrix is a function of the ball's stop set.
  std::sort(ball.begin(), ball.end());
  const auto local = [&ball](int stop) {
    return static_cast<int>(std::lower_bound(ball.begin(), ball.end(), stop) -
                            ball.begin());
  };
  const int size = static_cast<int>(ball.size());
  linalg::DenseMatrix a(size, size);
  for (int i = 0; i < size; ++i) {
    ForEachNeighbor(base, staged, ball[i], [&](int y, double value) {
      if (in_ball[y]) a.Set(i, local(y), value);
    });
  }
  const std::vector<double> before = linalg::SymmetricEigenvalues(a);
  a.Set(local(u), local(v), 1.0);
  a.Set(local(v), local(u), 1.0);
  const std::vector<double> after = linalg::SymmetricEigenvalues(a);

  double increment = 0.0;
  for (int i = 0; i < size; ++i) {
    increment += std::exp(after[i]) - std::exp(before[i]);
  }
  return increment;
}

}  // namespace ctbus::connectivity
