// Exact local trace increments: the change in tr(e^A) from adding one
// edge, computed on the r-hop ball around the edge's endpoints instead of
// the whole network. Entries of e^A decay exponentially with graph
// distance (Benzi-Golub 1999, Benzi-Razouk 2007), so the increment
// tr(e^{A + e_uv}) - tr(e^A) is concentrated near u and v: at radius 3 the
// truncation error on the city networks is ~1e-7 of the increment's own
// scale (bench_increment_accuracy), orders of magnitude below the
// stochastic estimator's noise. Telescoping single-edge terms along a path,
// each on the network that already holds the path's earlier edges, gives
// the path's increment: Delta tr(P + e) = Delta tr(P) + Delta tr(e | P).
#ifndef CTBUS_CONNECTIVITY_LOCAL_INCREMENT_H_
#define CTBUS_CONNECTIVITY_LOCAL_INCREMENT_H_

#include <utility>
#include <vector>

#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {

/// Hop radius of the ball the local increment is solved on.
inline constexpr int kLocalIncrementRadius = 3;

/// Membership mask over stops: 1 for every stop within
/// kLocalIncrementRadius hops of `sources` on `base` plus the unit-weight
/// stop pairs in `staged`, 0 elsewhere. This is the locality lemma the
/// kernel rests on: LocalTraceIncrement(base, staged, u, v) reads only
/// the ball StopsNear(base, staged, {u, v}), so adding an edge with no
/// endpoint in StopsNear(base, staged, {u, v}) leaves it unchanged. The
/// warm start (core::PlanningContext::DerivePrecompute) and the
/// connectivity-first greedy use that to re-solve only the candidates
/// near a change.
std::vector<char> StopsNear(const linalg::SymmetricSparseMatrix& base,
                            const std::vector<std::pair<int, int>>& staged,
                            const std::vector<int>& sources);

/// Delta tr(e | staged): tr(e^{A + S + e_uv}) - tr(e^{A + S}), where A is
/// `base` and S overlays the unit-weight stop pairs in `staged` (a path's
/// earlier new edges). Solved exactly on the principal submatrix of
/// A + S over the kLocalIncrementRadius-hop ball around {u, v}: both
/// spectra (without and with the edge) come from dense eigensolves, and
/// the increment is sum_i e^{theta'_i} - e^{theta_i} over the ascending
/// eigenvalues. Ball stops are sorted before the dense matrix is built, so
/// the value does not depend on row order or visiting order; it reads
/// `staged` only as a set of unordered pairs and is symmetric in (u, v),
/// so any order and orientation of the same pairs gives the same bits,
/// which is what lets core::TermMemo key a term by its sorted pairs.
/// Returns 0 if (u, v) is already in `base` or in `staged`. Pure:
/// allocates per call and writes no shared state, so any number of
/// threads may call it at once. The planners call it through
/// core::PlanningContext, which reads a term from the precompute's memo
/// when an earlier request solved it.
/// Cost: two linalg::SymmetricEigenvalues calls on the ball, each a
/// Householder reduction (O(|B|^3), now most of the time) and the
/// root-free QL (O(|B|^2)). At CTBUS_SCALE=0.5 on ChicagoLike that is
/// about 0.03 ms per one-edge increment (bench_increment_accuracy; 0.05 ms
/// when the values came from the eigenvector-grade tql2); at scale 1.0 a
/// staged term's ball is about 43 stops and costs about 0.1 ms.
double LocalTraceIncrement(const linalg::SymmetricSparseMatrix& base,
                           const std::vector<std::pair<int, int>>& staged,
                           int u, int v);

}  // namespace ctbus::connectivity

#endif  // CTBUS_CONNECTIVITY_LOCAL_INCREMENT_H_
