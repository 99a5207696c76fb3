// Dense symmetric eigensolver built from scratch: Householder reduction to
// tridiagonal form (EISPACK tred2), then a QL iteration on the tridiagonal.
//  * With eigenvectors: the implicit-shift QL with rotations accumulated
//    (EISPACK tql2, via JAMA).
//  * Eigenvalues only: the root-free rational QL (EISPACK tqlrat; Reinsch,
//    CACM Algorithm 464, 1973; Parlett, The Symmetric Eigenvalue Problem,
//    Sec. 8.15; the Pal-Walker-Kahan variant is LAPACK dsterf). It runs the
//    same shifts on the squared subdiagonal, with no square root in its
//    sweep, and takes about a third of tql2's time.
// This is the exact-eigendecomposition baseline from Table 2 of the paper
// ("Eigen NumPy" column), the ground truth against which the Lanczos
// estimates are validated, and the kernel of every exact local trace
// increment (connectivity/local_increment.h).
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

/// Full eigendecomposition of a dense symmetric matrix (tred2 + tql2), or
/// its eigenvalues alone (tred2 + the root-free QL) when !compute_vectors.
/// Only the lower/upper symmetric content of `a` is read; `a` must be square.
SymmetricEigenResult SymmetricEigen(const DenseMatrix& a,
                                    bool compute_vectors);

/// Eigenvalues only (ascending): SymmetricEigen(a, false). Accumulates no
/// orthogonal factor and runs the root-free QL.
std::vector<double> SymmetricEigenvalues(const DenseMatrix& a);

/// Eigendecomposition of a symmetric tridiagonal matrix given by its
/// diagonal `diag` (size n) and subdiagonal `off` (size n-1): tql2, or the
/// root-free QL when !compute_vectors. Used for the small T matrices
/// produced by Lanczos.
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
