#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace ctbus::linalg {
namespace {

std::string PairText(int u, int v) {
  return "(" + std::to_string(u) + ", " + std::to_string(v) + ")";
}

// Always-on validation of one input pair. A diagonal entry would break the
// zero-diagonal invariant and the store-twice count behind num_entries(); a
// bad index or a NaN would end up inside every cached Precompute table
// built from the matrix. Asserts compile out in release builds, so these
// throw in every build mode, before any storage exists.
void ValidateTriplet(const SymmetricSparseMatrix::Triplet& t, int n) {
  if (t.u == t.v) {
    throw std::invalid_argument("SymmetricSparseMatrix: diagonal entry " +
                                PairText(t.u, t.v) +
                                " violates the zero-diagonal invariant");
  }
  if (t.u < 0 || t.u >= n || t.v < 0 || t.v >= n) {
    throw std::out_of_range("SymmetricSparseMatrix: index " +
                            PairText(t.u, t.v) + " outside [0, " +
                            std::to_string(n) + ")");
  }
  if (!std::isfinite(t.value)) {
    throw std::invalid_argument("SymmetricSparseMatrix: non-finite value at " +
                                PairText(t.u, t.v));
  }
}

// Binary search of one sorted row: the entry in column `col`, or nullptr.
const SymmetricSparseMatrix::Entry* FindColumn(
    SymmetricSparseMatrix::RowView row, int col) {
  const SymmetricSparseMatrix::Entry* it = std::lower_bound(
      row.begin(), row.end(), col,
      [](const SymmetricSparseMatrix::Entry& e, int c) { return e.col < c; });
  return it != row.end() && it->col == col ? it : nullptr;
}

// ApplyBatch over lanes [first, first + L) of a batch of `stride` lanes.
template <int L>
void ApplyLanes(const SymmetricSparseMatrix& a, const double* x, int stride,
                int first, double* y) {
  const int n = a.dim();
  for (int i = 0; i < n; ++i) {
    double acc[L] = {};
    for (const SymmetricSparseMatrix::Entry& e : a.Row(i)) {
      const double* xs = x + static_cast<std::size_t>(e.col) * stride + first;
      for (int l = 0; l < L; ++l) acc[l] += e.value * xs[l];
    }
    double* ys = y + static_cast<std::size_t>(i) * stride + first;
    for (int l = 0; l < L; ++l) ys[l] = acc[l];
  }
}

}  // namespace

SymmetricSparseMatrix::SymmetricSparseMatrix(
    int n, const std::vector<Triplet>& entries) {
  if (n < 0) {
    throw std::invalid_argument("SymmetricSparseMatrix: negative dimension " +
                                std::to_string(n));
  }
  for (const Triplet& t : entries) ValidateTriplet(t, n);

  // Counting sort into rows, then each row by column: the stored layout is
  // a function of the entry set, whatever order `entries` lists it in.
  std::vector<std::size_t> row_start(static_cast<std::size_t>(n) + 1, 0);
  for (const Triplet& t : entries) {
    ++row_start[t.u + 1];
    ++row_start[t.v + 1];
  }
  for (int i = 0; i < n; ++i) row_start[i + 1] += row_start[i];
  std::vector<Entry> stored(2 * entries.size());
  std::vector<std::size_t> next(row_start.begin(), row_start.end() - 1);
  for (const Triplet& t : entries) {
    stored[next[t.u]++] = {t.v, t.value};
    stored[next[t.v]++] = {t.u, t.value};
  }
  const auto by_col = [](const Entry& a, const Entry& b) {
    return a.col < b.col;
  };
  for (int i = 0; i < n; ++i) {
    const auto begin = stored.begin() + row_start[i];
    const auto end = stored.begin() + row_start[i + 1];
    std::sort(begin, end, by_col);
    const auto repeat = std::adjacent_find(
        begin, end,
        [](const Entry& a, const Entry& b) { return a.col == b.col; });
    if (repeat != end) {
      throw std::invalid_argument("SymmetricSparseMatrix: pair " +
                                  PairText(i, repeat->col) +
                                  " listed more than once");
    }
  }
  row_start_ = std::move(row_start);
  entries_ = std::move(stored);
}

double SymmetricSparseMatrix::At(int u, int v) const {
  const Entry* entry = FindColumn(Row(u), v);
  return entry != nullptr ? entry->value : 0.0;
}

bool SymmetricSparseMatrix::Contains(int u, int v) const {
  return FindColumn(Row(u), v) != nullptr;
}

void SymmetricSparseMatrix::Apply(const std::vector<double>& x,
                                  std::vector<double>* y) const {
  assert(static_cast<int>(x.size()) == dim());
  assert(static_cast<int>(y->size()) == dim());
  const int n = dim();
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (const Entry& e : Row(i)) acc += e.value * x[e.col];
    (*y)[i] = acc;
  }
}

void SymmetricSparseMatrix::ApplyBatch(const double* x, int batch,
                                       double* y) const {
  for (int first = 0; first < batch; first += 4) {
    switch (std::min(4, batch - first)) {
      case 1: ApplyLanes<1>(*this, x, batch, first, y); break;
      case 2: ApplyLanes<2>(*this, x, batch, first, y); break;
      case 3: ApplyLanes<3>(*this, x, batch, first, y); break;
      default: ApplyLanes<4>(*this, x, batch, first, y);
    }
  }
}

}  // namespace ctbus::linalg
