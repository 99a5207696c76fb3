#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/csr_matrix.h"

namespace ctbus::linalg {
namespace {

// Always-on precondition check shared by Set/Add/Remove. These used to be
// asserts, which compile out under NDEBUG: a release-mode Set(u, u, w)
// stored a diagonal entry exactly once (breaking the store-twice
// invariant), after which Remove(u, u) popped an unrelated entry and
// num_entries() drifted — silent corruption that ends up inside cached
// Precompute tables. The io/parse layers already throw on malformed
// input; matrix mutation follows the same discipline.
void ValidateOffDiagonal(const char* op, int u, int v, int dim) {
  if (u == v) {
    throw std::invalid_argument(
        std::string("SymmetricSparseMatrix::") + op + ": diagonal entry (" +
        std::to_string(u) + ", " + std::to_string(v) +
        ") violates the zero-diagonal invariant");
  }
  if (u < 0 || u >= dim || v < 0 || v >= dim) {
    throw std::out_of_range(std::string("SymmetricSparseMatrix::") + op +
                            ": index (" + std::to_string(u) + ", " +
                            std::to_string(v) + ") outside [0, " +
                            std::to_string(dim) + ")");
  }
}

// ApplyBatch over lanes [first, first + L) of a batch of `stride` lanes.
template <int L>
void ApplyLanes(const std::vector<std::vector<SymmetricSparseMatrix::Entry>>&
                    rows,
                const double* x, int stride, int first, double* y) {
  const int n = static_cast<int>(rows.size());
  for (int i = 0; i < n; ++i) {
    double acc[L] = {};
    for (const SymmetricSparseMatrix::Entry& e : rows[i]) {
      const double* xs = x + static_cast<std::size_t>(e.col) * stride + first;
      for (int l = 0; l < L; ++l) acc[l] += e.value * xs[l];
    }
    double* ys = y + static_cast<std::size_t>(i) * stride + first;
    for (int l = 0; l < L; ++l) ys[l] = acc[l];
  }
}

}  // namespace

int SymmetricSparseMatrix::FindInRow(int row, int col) const {
  const auto& entries = rows_[row];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].col == col) return static_cast<int>(i);
  }
  return -1;
}

void SymmetricSparseMatrix::Set(int u, int v, double value) {
  ValidateOffDiagonal("Set", u, v, dim());
  const int iu = FindInRow(u, v);
  if (iu >= 0) {
    rows_[u][iu].value = value;
    rows_[v][FindInRow(v, u)].value = value;
    return;
  }
  rows_[u].push_back({v, value});
  rows_[v].push_back({u, value});
  ++num_entries_;
}

void SymmetricSparseMatrix::Add(int u, int v, double delta) {
  ValidateOffDiagonal("Add", u, v, dim());
  const int iu = FindInRow(u, v);
  if (iu < 0) {
    Set(u, v, delta);
    return;
  }
  rows_[u][iu].value += delta;
  rows_[v][FindInRow(v, u)].value += delta;
}

bool SymmetricSparseMatrix::Remove(int u, int v) {
  ValidateOffDiagonal("Remove", u, v, dim());
  const int iu = FindInRow(u, v);
  if (iu < 0) return false;
  rows_[u][iu] = rows_[u].back();
  rows_[u].pop_back();
  const int iv = FindInRow(v, u);
  rows_[v][iv] = rows_[v].back();
  rows_[v].pop_back();
  --num_entries_;
  return true;
}

double SymmetricSparseMatrix::At(int u, int v) const {
  const int iu = FindInRow(u, v);
  return iu < 0 ? 0.0 : rows_[u][iu].value;
}

bool SymmetricSparseMatrix::Contains(int u, int v) const {
  return FindInRow(u, v) >= 0;
}

void SymmetricSparseMatrix::Apply(const std::vector<double>& x,
                                  std::vector<double>* y) const {
  assert(static_cast<int>(x.size()) == dim());
  assert(static_cast<int>(y->size()) == dim());
  const int n = dim();
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (const Entry& e : rows_[i]) acc += e.value * x[e.col];
    (*y)[i] = acc;
  }
}

void SymmetricSparseMatrix::ApplyBatch(const double* x, int batch,
                                       double* y) const {
  for (int first = 0; first < batch; first += 4) {
    switch (std::min(4, batch - first)) {
      case 1: ApplyLanes<1>(rows_, x, batch, first, y); break;
      case 2: ApplyLanes<2>(rows_, x, batch, first, y); break;
      case 3: ApplyLanes<3>(rows_, x, batch, first, y); break;
      default: ApplyLanes<4>(rows_, x, batch, first, y);
    }
  }
}

CsrMatrix SymmetricSparseMatrix::Freeze() const {
  return CsrMatrix::FromSparse(*this);
}

double SymmetricSparseMatrix::SpectralNormUpperBound() const {
  double best = 0.0;
  for (const auto& row : rows_) {
    double sum = 0.0;
    for (const Entry& e : row) sum += std::abs(e.value);
    best = std::max(best, sum);
  }
  return best;
}

}  // namespace ctbus::linalg
