// Lanczos method for symmetric operators: tridiagonalization, approximation
// of exp(A)v, Gaussian quadrature for v^T exp(A) v, and top-k eigenvalue
// extraction. Together with Hutchinson's estimator (hutchinson.h) this is the
// fast connectivity machinery of Section 5.1 of the CT-Bus paper.
#ifndef CTBUS_LINALG_LANCZOS_H_
#define CTBUS_LINALG_LANCZOS_H_

#include <vector>

#include "linalg/matvec.h"
#include "linalg/rng.h"

namespace ctbus::linalg {

/// Output of a Lanczos run: T = tridiag(alpha, beta) with V^T A V = T.
struct LanczosResult {
  /// Diagonal of T; size == steps actually performed (<= requested).
  std::vector<double> alpha;
  /// Subdiagonal of T; size == steps - 1.
  std::vector<double> beta;
  /// Orthonormal Lanczos basis vectors v_0 .. v_{steps-1}; only populated
  /// when requested (needed to reconstruct exp(A)v, not for quadrature).
  std::vector<std::vector<double>> basis;
  /// True if the iteration hit an invariant subspace (beta underflow), in
  /// which case the result is exact on that subspace.
  bool broke_down = false;
};

/// Options for the Lanczos iteration.
struct LanczosOptions {
  /// Number of iterations t. The paper's default for connectivity estimation.
  int steps = 10;
  /// Keep the basis vectors (memory O(n * steps)).
  bool keep_basis = false;
  /// Re-orthogonalize each new vector against the whole basis. Required for
  /// accurate extreme eigenvalues; implies keep_basis internally.
  bool full_reorthogonalize = false;
};

/// Runs Lanczos from starting vector v0 (need not be normalized).
LanczosResult LanczosTridiagonalize(const MatVec& a,
                                    const std::vector<double>& v0,
                                    const LanczosOptions& options);

/// Approximates s = exp(A) v with `steps` Lanczos iterations:
///   s = ||v|| * V * exp(T) * e1.
/// Error bound (Lemma 2, after Musco et al.): after
/// t = O(||A||_2 + log(1/eps)) steps, ||s - exp(A) v|| <= eps tr(e^A) ||v||.
std::vector<double> LanczosExpApply(const MatVec& a,
                                    const std::vector<double>& v, int steps);

/// Approximates the quadratic form v^T exp(A) v by Lanczos quadrature:
///   ||v||^2 * (e1^T exp(T) e1).
/// This never materializes the basis, so it costs O(steps * nnz) time and
/// O(n) memory. It is the single-lane call of LanczosExpQuadratureBatch.
double LanczosExpQuadrature(const MatVec& a, const std::vector<double>& v,
                            int steps);

/// The quadrature kernel behind every connectivity estimate:
/// result[b] = vs[b]^T exp(A) vs[b] by `steps`-step Lanczos quadrature,
/// bit-identical to running LanczosTridiagonalize on vs[b] and summing
/// TridiagonalEigen's first-row weights. Probes run in blocks of four
/// lanes stored interleaved (MatVec::ApplyBatch's layout). Each step
/// makes lane-innermost passes: the matvec, the alpha dots, one fused
/// axpy/axpy/norm pass and one scaling pass. The time goes into the
/// strictly ordered per-lane reductions rather than the matvec, so
/// interleaving gives each pass four independent dependency chains; every
/// lane keeps the serial per-element and reduction order, and drops out
/// on its own at a zero probe or a breakdown. T's weight comes from
/// TridiagonalExpQuadrature.
std::vector<double> LanczosExpQuadratureBatch(
    const MatVec& a, const std::vector<std::vector<double>>& vs, int steps);

/// Largest `k` eigenvalues of `a` (descending), computed by Lanczos with full
/// reorthogonalization using `iters >= k` iterations from a random start.
/// Accurate for the well-separated extreme eigenvalues the CT-Bus bounds
/// need (Lemma 3 uses the top 2k, Lemma 4 the top floor((k+1)/2)).
std::vector<double> TopEigenvalues(const MatVec& a, int k, int iters,
                                   Rng* rng);

/// Top eigenpairs: eigenvalues descending plus the matching Ritz vectors.
struct TopEigenpairsResult {
  /// Largest eigenvalues, descending.
  std::vector<double> eigenvalues;
  /// eigenvectors[j] is the unit Ritz vector for eigenvalues[j].
  std::vector<std::vector<double>> eigenvectors;
};

/// Largest `k` eigenpairs of `a`, via Lanczos with full
/// reorthogonalization. Ritz vectors are V * y_j for the tridiagonal
/// eigenvectors y_j. Used by the perturbation-theory increment model.
TopEigenpairsResult TopEigenpairs(const MatVec& a, int k, int iters,
                                  Rng* rng);

/// Estimate of the spectral norm ||A||_2 = max(|lambda_max|, |lambda_min|).
double SpectralNormEstimate(const MatVec& a, int iters, Rng* rng);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_LANCZOS_H_
