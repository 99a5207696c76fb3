#include "linalg/csr_matrix.h"

#include <cassert>

#include "linalg/sparse_matrix.h"

namespace ctbus::linalg {
namespace {

// Lane-chunk width for ApplyBatch: lanes are processed kLaneBlock at a
// time so each chunk's accumulators stay resident while a row's entries
// stream past. 32 lanes * 8 bytes = 256 bytes of accumulator state, well
// within register+L1 reach, and covers the default probe count (50) in
// two chunks.
constexpr int kLaneBlock = 32;

}  // namespace

CsrMatrix CsrMatrix::FromSparse(const SymmetricSparseMatrix& a) {
  CsrMatrix csr;
  csr.AssignFrom(a);
  return csr;
}

void CsrMatrix::AssignFrom(const SymmetricSparseMatrix& a) {
  const int n = a.dim();
  n_ = n;
  row_ptr_.resize(static_cast<std::size_t>(n) + 1);
  std::int64_t nnz = 0;
  row_ptr_[0] = 0;
  for (int i = 0; i < n; ++i) {
    nnz += a.RowDegree(i);
    row_ptr_[static_cast<std::size_t>(i) + 1] = nnz;
  }
  col_.resize(static_cast<std::size_t>(nnz));
  value_.resize(static_cast<std::size_t>(nnz));
  std::int64_t out = 0;
  for (int i = 0; i < n; ++i) {
    // Stored entry order within each row is preserved exactly: Apply's
    // accumulation order (and therefore its FP result) matches
    // SymmetricSparseMatrix::Apply bit for bit.
    for (const SymmetricSparseMatrix::Entry& e : a.Row(i)) {
      col_[static_cast<std::size_t>(out)] = e.col;
      value_[static_cast<std::size_t>(out)] = e.value;
      ++out;
    }
  }
  assert(out == nnz);
}

void CsrMatrix::Apply(const std::vector<double>& x,
                      std::vector<double>* y) const {
  assert(static_cast<int>(x.size()) == n_);
  assert(static_cast<int>(y->size()) == n_);
  const std::int64_t* row_ptr = row_ptr_.data();
  const int* col = col_.data();
  const double* value = value_.data();
  const double* xs = x.data();
  double* ys = y->data();
  for (int i = 0; i < n_; ++i) {
    const std::int64_t begin = row_ptr[i];
    const std::int64_t end = row_ptr[i + 1];
    // Single sequential accumulator chain in stored order — the unroll
    // only widens the load stream; it must NOT split `acc` into partial
    // sums or the FP order (and bit-identity with
    // SymmetricSparseMatrix::Apply) would change.
    double acc = 0.0;
    std::int64_t j = begin;
    for (; j + 4 <= end; j += 4) {
      acc += value[j] * xs[col[j]];
      acc += value[j + 1] * xs[col[j + 1]];
      acc += value[j + 2] * xs[col[j + 2]];
      acc += value[j + 3] * xs[col[j + 3]];
    }
    for (; j < end; ++j) acc += value[j] * xs[col[j]];
    ys[i] = acc;
  }
}

void CsrMatrix::ApplyBatch(const double* x, int batch, double* y) const {
  assert(batch >= 0);
  if (batch <= 0) return;
  const std::int64_t* row_ptr = row_ptr_.data();
  const int* col = col_.data();
  const double* value = value_.data();
  double acc[kLaneBlock];
  for (int b0 = 0; b0 < batch; b0 += kLaneBlock) {
    const int lanes = b0 + kLaneBlock <= batch ? kLaneBlock : batch - b0;
    for (int i = 0; i < n_; ++i) {
      for (int l = 0; l < lanes; ++l) acc[l] = 0.0;
      const std::int64_t end = row_ptr[i + 1];
      for (std::int64_t j = row_ptr[i]; j < end; ++j) {
        // One entry feeds every lane in the chunk: the matrix is streamed
        // once per chunk instead of once per probe. Each lane accumulates
        // in its own slot in stored entry order, so lane b's result is
        // bit-identical to Apply on that lane alone.
        const double a = value[j];
        const double* xrow = x + static_cast<std::int64_t>(col[j]) * batch + b0;
        for (int l = 0; l < lanes; ++l) acc[l] += a * xrow[l];
      }
      double* yrow = y + static_cast<std::int64_t>(i) * batch + b0;
      for (int l = 0; l < lanes; ++l) yrow[l] = acc[l];
    }
  }
}

}  // namespace ctbus::linalg
