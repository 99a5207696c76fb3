// Per-candidate upper bounds on the single-edge connectivity increment
// Delta(e) = lambda(G + e) - lambda(G), used to prune the Table-4
// precompute loop (Section 5.2's Lemma 3/4 machinery specialized to one
// edge at a time).
//
// The screen combines two bounds and takes the tighter:
//   * Golden-Thompson: tr(e^{A+E}) <= tr(e^A e^E) with
//     E = e_u e_v^T + e_v e_u^T. Since e^E - I is supported on {u, v},
//       tr(e^A (e^E - I)) = (cosh 1 - 1)(M_uu + M_vv) + 2 sinh 1 * M_uv
//     with M = e^A, which gives the *exact* Golden-Thompson value
//       Delta(e) <= log1p(g / tr(e^A)),  tr(e^A) = n e^{lambda_g}.
//     The three communicability entries are evaluated by Lanczos
//     quadrature on the base matrix: M_uu = e_u^T e^A e_u directly, and
//     M_uv by polarization from one extra quadrature,
//       (e_u + e_v)^T e^A (e_u + e_v) = M_uu + M_vv + 2 M_uv.
//     This is per-edge — edges far from spectrally heavy vertices get
//     dramatically smaller bounds than any uniform cap — and needs one
//     base-matrix quadrature per candidate versus `probes` quadratures
//     on a *modified* matrix for a full estimate.
//   * The uniform Lemma 3 / Lemma 4 bounds at k = 1
//     (connectivity/bounds.h), which do not depend on the edge.
//
// M_uu <= e^{lambda_1} and lambda_1 is at most the maximum degree of the
// (unweighted) transit adjacency, so the quadratures stay comfortably
// finite at city scale; the bounds themselves are formed in log space
// (see bounds.h). Construction is fully deterministic: the quadratures
// start from fixed unit vectors, and `seed` only feeds the top-eigenvalue
// run behind the uniform cap. The screen feeds PlanningContext's pruned
// precompute, where determinism is part of the cache-key contract
// (docs/PRECOMPUTE.md).
#ifndef CTBUS_CONNECTIVITY_CANDIDATE_PRUNING_H_
#define CTBUS_CONNECTIVITY_CANDIDATE_PRUNING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {

/// Upper-bound screen for single-edge connectivity increments.
class CandidateScreen {
 public:
  /// Builds the screen from `adjacency` (the base transit adjacency) and
  /// `base_lambda`, the estimator's own lambda(G) (bounds and estimates
  /// must share the same baseline for the cutoff comparison to mean
  /// anything). `lanczos_steps` sizes the quadratures — use the
  /// precompute estimator's own step count so the screen resolves the
  /// spectrum at least as finely as the values it gates. `seed` feeds
  /// only the top-eigenvalue run behind the uniform Lemma 3/4 cap.
  /// Freezes the adjacency once (CSR) and computes all per-vertex
  /// diagonal communicabilities through batched quadrature.
  static CandidateScreen Build(const linalg::SymmetricSparseMatrix& adjacency,
                               double base_lambda, int lanczos_steps,
                               std::uint64_t seed);

  /// Upper bound on Delta({u, v}) for a prospective unweighted edge.
  /// Finite; may be negative when Golden-Thompson certifies a decrease.
  double EdgeBound(int u, int v) const;

  /// Batched EdgeBound over candidate endpoint pairs: result[i] ==
  /// EdgeBound(edges[i]) bit for bit (the polarization quadratures run
  /// through LanczosExpQuadratureBatch, whose lanes reproduce the
  /// single-lane kernel exactly), with four candidates interleaved per
  /// kernel pass.
  std::vector<double> EdgeBounds(
      const std::vector<std::pair<int, int>>& edges) const;

  /// The uniform (edge-independent) k = 1 cap the per-edge bound is
  /// clamped against. Exposed for tests and bench reporting.
  double UniformCap() const { return uniform_cap_; }

  /// Diagonal communicability M_uu = (e^A)_{uu} as evaluated by the
  /// screen's quadrature. Exposed for tests.
  double DiagonalCommunicability(int u) const { return muu_[u]; }

 private:
  CandidateScreen() = default;

  /// log1p(inv_trace_ * g) for the polarization quadrature value of one
  /// edge, clamped against the uniform cap.
  double BoundFromQuadrature(int u, int v, double quad_uv) const;

  int n_ = 0;
  int steps_ = 0;
  // Frozen base adjacency the quadratures run against.
  linalg::CsrMatrix matrix_;
  // Per-vertex diagonal communicability M_uu.
  std::vector<double> muu_;
  // 1 / tr(e^A) = e^{-(lambda_g + ln n)} under the estimator's baseline.
  double inv_trace_ = 0.0;
  // min(GeneralUpperBound, PathUpperBound)(k = 1) - lambda_g, >= 0.
  double uniform_cap_ = 0.0;
};

}  // namespace ctbus::connectivity

#endif  // CTBUS_CONNECTIVITY_CANDIDATE_PRUNING_H_
