// Stochastic connectivity increments Delta(e) = lambda(G_r + e) - lambda(G_r)
// (Definition 7), each from one whole-network trace estimate. The planners'
// Delta(e) table uses exact local trace increments instead
// (connectivity/local_increment.h); these estimates remain for the
// baselines and the Figure 3 submodularity probe.
//
// Every lambda here is estimated with a single shared ConnectivityEstimator
// (common random numbers), which is what makes the tiny increments
// (~1e-3 and below) resolvable at all.
#ifndef CTBUS_CONNECTIVITY_EDGE_INCREMENT_H_
#define CTBUS_CONNECTIVITY_EDGE_INCREMENT_H_

#include <utility>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {

/// Delta(e) for one prospective edge {u, v}. `base` is mutated during the
/// call but restored before returning. `base_lambda` must be the estimator's
/// own estimate of lambda(base).
double EdgeIncrement(linalg::SymmetricSparseMatrix* base, double base_lambda,
                     const ConnectivityEstimator& estimator, int u, int v);

/// Increment of a whole edge set added at once:
/// lambda(G + edges) - lambda(G). Used to probe (non-)submodularity
/// (Figure 3): compare against the sum of the individual Delta(e).
double EdgeSetIncrement(linalg::SymmetricSparseMatrix* base,
                        double base_lambda,
                        const ConnectivityEstimator& estimator,
                        const std::vector<std::pair<int, int>>& stop_pairs);

}  // namespace ctbus::connectivity

#endif  // CTBUS_CONNECTIVITY_EDGE_INCREMENT_H_
