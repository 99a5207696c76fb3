// Abstract matrix-vector product, the only interface the iterative methods
// (Lanczos, Hutchinson) need. Implemented by SymmetricSparseMatrix and
// DenseMatrix. All operators in this library are symmetric.
#ifndef CTBUS_LINALG_MATVEC_H_
#define CTBUS_LINALG_MATVEC_H_

#include <vector>

namespace ctbus::linalg {

/// A symmetric linear operator R^n -> R^n exposed through y = A x.
class MatVec {
 public:
  virtual ~MatVec() = default;

  /// Dimension n of the operator.
  virtual int dim() const = 0;

  /// Computes y = A x. Requires x.size() == y->size() == dim().
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>* y) const = 0;

  /// Computes Y = A X for `batch` right-hand sides stored interleaved:
  /// element (i, b) lives at x[i * batch + b] (and likewise in y). Each
  /// lane's result is bit-identical to a single-vector Apply of that lane.
  /// The default implementation unpacks one lane at a time; overrides
  /// (SymmetricSparseMatrix, CsrMatrix) walk the matrix once with the lane
  /// loop innermost, each lane accumulating in its own chain. The Lanczos
  /// quadrature kernel calls this with its 4-lane blocks.
  virtual void ApplyBatch(const double* x, int batch, double* y) const {
    std::vector<double> lane_x(dim());
    std::vector<double> lane_y(dim());
    for (int b = 0; b < batch; ++b) {
      for (int i = 0; i < dim(); ++i) lane_x[i] = x[i * batch + b];
      Apply(lane_x, &lane_y);
      for (int i = 0; i < dim(); ++i) y[i * batch + b] = lane_y[i];
    }
  }
};

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_MATVEC_H_
