// CSR (compressed sparse row) copy of a SymmetricSparseMatrix in three
// split arrays (row_ptr / col / value), traversed by an unrolled Apply and
// a lane-chunked multi-RHS ApplyBatch.
//
// No planner or estimator reads it: SymmetricSparseMatrix is itself an
// immutable row-sorted layout and runs every matvec on the request path.
// CsrMatrix remains only for the serving benchmark's kernel rows and its
// own test.
//
// Determinism contract: FromSparse/AssignFrom copy each row in the source's
// stored (ascending column) order, Apply accumulates each row in that order
// through a single dependency chain, and ApplyBatch keeps each lane's
// accumulation in its own register — so CSR results are bit-identical to
// SymmetricSparseMatrix::Apply, lane by lane.
#ifndef CTBUS_LINALG_CSR_MATRIX_H_
#define CTBUS_LINALG_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matvec.h"

namespace ctbus::linalg {

class SymmetricSparseMatrix;

class CsrMatrix : public MatVec {
 public:
  CsrMatrix() = default;

  /// Builds a CSR copy of `a`, preserving its per-row entry order.
  static CsrMatrix FromSparse(const SymmetricSparseMatrix& a);

  /// Copies `a` into this matrix, reusing existing capacity.
  void AssignFrom(const SymmetricSparseMatrix& a);

  int dim() const override { return n_; }

  /// Stored (directed) entries: each symmetric pair appears twice.
  std::int64_t num_values() const {
    return static_cast<std::int64_t>(col_.size());
  }

  /// y = A x, rows accumulated in stored order (single dependency chain,
  /// unrolled by 4 — no reassociation, so bit-identical to
  /// SymmetricSparseMatrix::Apply).
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

  /// Y = A X for `batch` SoA-interleaved right-hand sides (see
  /// MatVec::ApplyBatch for the layout). One traversal of the matrix feeds
  /// all lanes; each lane accumulates independently in stored entry order.
  void ApplyBatch(const double* x, int batch, double* y) const override;

  /// Approximate resident footprint in bytes. Deterministic, O(1).
  std::size_t ApproxBytes() const {
    return sizeof(CsrMatrix) + row_ptr_.size() * sizeof(std::int64_t) +
           col_.size() * sizeof(int) + value_.size() * sizeof(double);
  }

 private:
  int n_ = 0;
  std::vector<std::int64_t> row_ptr_;  // size n_ + 1
  std::vector<int> col_;
  std::vector<double> value_;
};

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_CSR_MATRIX_H_
