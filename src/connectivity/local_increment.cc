#include "connectivity/local_increment.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

std::vector<char> StopsNear(const linalg::SymmetricSparseMatrix& base,
                            const std::vector<std::pair<int, int>>& staged,
                            const std::vector<int>& sources) {
  std::vector<char> near(base.dim(), 0);
  std::vector<int> frontier;
  for (int s : sources) {
    if (!near[s]) {
      near[s] = 1;
      frontier.push_back(s);
    }
  }
  for (int hop = 0; hop < kLocalIncrementRadius; ++hop) {
    std::vector<int> next;
    for (int x : frontier) {
      ForEachNeighbor(base, staged, x, [&](int y, double) {
        if (!near[y]) {
          near[y] = 1;
          next.push_back(y);
        }
      });
    }
    frontier = std::move(next);
  }
  return near;
}

double LocalTraceIncrement(const linalg::SymmetricSparseMatrix& base,
                           const std::vector<std::pair<int, int>>& staged,
                           int u, int v) {
  if (u == v || base.Contains(u, v) || IsStaged(staged, u, v)) return 0.0;

  const std::vector<char> in_ball = StopsNear(base, staged, {u, v});
  std::vector<int> ball;
  for (int stop = 0; stop < base.dim(); ++stop) {
    if (in_ball[stop]) ball.push_back(stop);
  }

  // Ascending stop order: the dense matrix is a function of the ball's
  // stop set.
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
