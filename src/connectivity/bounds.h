// Upper bounds on the natural connectivity of a network enhanced with k new
// edges (Section 5.2):
//   * the Estrada-index bound of De La Peña et al. (loose; Table 3),
//   * the general bound of Lemma 3 (k arbitrary edges), and
//   * the path bound of Lemma 4 (k edges forming a simple path).
// Lemmas 3 and 4 are expressed in terms of lambda(G_r) and the top
// eigenvalues of the current adjacency matrix. Lemma 4 is increasing in
// each eigenvalue it reads, so it stays an upper bound when they are
// replaced by upper bounds on them: online ETA feeds it one certified cap
// on lambda_1 per snapshot (core::SpectralRadiusCap). Lanczos Ritz values
// sit below the eigenvalues they approximate, so on them either lemma is
// an estimate of its bound, not a bound (Table 3).
//
// Every bound is evaluated in log space (log-sum-exp around the dominant
// exponent), so the results stay finite and correct when lambda_g or
// sqrt(2(|E_r| + k)) exceeds ~709 — the city-scale regime where a naive
// std::exp overflows to +inf and any pruning built on these bounds would
// silently stop working.
#ifndef CTBUS_CONNECTIVITY_BOUNDS_H_
#define CTBUS_CONNECTIVITY_BOUNDS_H_

#include <vector>

namespace ctbus::connectivity {

/// Eigenvalues of the k-edge simple path graph adjacency matrix (k+1
/// vertices): sigma_i = 2 cos(i*pi / (k+2)), i = 1..k+1, descending.
std::vector<double> PathGraphEigenvalues(int k);

/// De La Peña-style bound on the connectivity of any graph with
/// `num_vertices` vertices and `num_edges + k` edges:
///   lambda <= ln(1 + (e^sqrt(2(|E_r|+k)) - 1) / |V_r|).
double EstradaUpperBound(int num_vertices, int num_edges, int k);

/// Lemma 3: bound after adding k arbitrary unweighted edges.
/// `lambda_g` is lambda(G_r); `top_eigenvalues` holds at least the 2k
/// largest eigenvalues of G_r's adjacency matrix, descending; `n` is
/// |V_r|. If fewer than 2k eigenvalues are supplied the missing ones are
/// treated as 0 (which keeps the bound valid but looser). If the
/// log-sum-exp argument comes out non-positive (possible only for garbage
/// inputs such as an unsorted eigenvalue list — mathematically the
/// correction term is nonnegative), returns lambda_g instead of NaN.
double GeneralUpperBound(double lambda_g,
                         const std::vector<double>& top_eigenvalues, int k,
                         int n);

/// Lemma 4: bound after adding a k-edge simple path. `top_eigenvalues`
/// holds at least the floor((k+1)/2) largest eigenvalues of G_r's adjacency
/// matrix, descending.
double PathUpperBound(double lambda_g,
                      const std::vector<double>& top_eigenvalues, int k,
                      int n);

}  // namespace ctbus::connectivity

#endif  // CTBUS_CONNECTIVITY_BOUNDS_H_
