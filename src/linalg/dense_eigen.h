// Dense symmetric eigensolver built from scratch: Householder reduction to
// tridiagonal form followed by the implicit-shift QL iteration (the classic
// tred2/tql2 pair). This is the exact-eigendecomposition baseline from
// Table 2 of the paper ("Eigen NumPy" column) and the ground truth against
// which the Lanczos estimates are validated.
#ifndef CTBUS_LINALG_DENSE_EIGEN_H_
#define CTBUS_LINALG_DENSE_EIGEN_H_

#include <vector>

#include "linalg/dense_matrix.h"

namespace ctbus::linalg {

/// Result of a symmetric eigendecomposition A = Z diag(w) Z^T.
struct SymmetricEigenResult {
  /// Eigenvalues in ascending order.
  std::vector<double> eigenvalues;
  /// Column j of this matrix is the unit eigenvector for eigenvalues[j].
  /// Empty (0x0) when eigenvectors were not requested.
  DenseMatrix eigenvectors;
};

/// Full eigendecomposition of a dense symmetric matrix.
/// Only the lower/upper symmetric content of `a` is read; `a` must be square.
SymmetricEigenResult SymmetricEigen(const DenseMatrix& a,
                                    bool compute_vectors);

/// Eigenvalues only (ascending); avoids accumulating the orthogonal factor.
std::vector<double> SymmetricEigenvalues(const DenseMatrix& a);

/// Eigendecomposition of a symmetric tridiagonal matrix given by its
/// diagonal `diag` (size n) and subdiagonal `off` (size n-1). Used for the
/// small T matrices produced by Lanczos.
SymmetricEigenResult TridiagonalEigen(const std::vector<double>& diag,
                                      const std::vector<double>& off,
                                      bool compute_vectors);

/// Gauss quadrature weight e1^T exp(T) e1 of the symmetric tridiagonal
/// T = tridiag(diag, off): sum_j exp(theta_j) * z_0j^2 over T's
/// eigenpairs, summed in ascending-theta order. Golub-Welsch: only the
/// first row of the eigenvector matrix is rotated, so this costs O(n^2)
/// instead of TridiagonalEigen's O(n^3) plus a dense column sort, yet is
/// bit-identical to summing TridiagonalEigen(diag, off, true)'s output.
/// Returns 0 for an empty T. This is the Lanczos quadrature's last step.
double TridiagonalExpQuadrature(const std::vector<double>& diag,
                                const std::vector<double>& off);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_DENSE_EIGEN_H_
