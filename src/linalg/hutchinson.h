// Hutchinson's stochastic trace estimator specialized to tr(exp(A)).
//
// tr(exp(A)) = E[v^T exp(A) v] for v with i.i.d. unit-variance entries
// (Equation 6/7 of the paper). Each quadratic form is evaluated with
// `steps`-iteration Lanczos quadrature, so one estimate costs
// O(probes * steps * nnz(A)).
//
// The `WithProbes` variant evaluates several matrices with the *same* probe
// vectors (common random numbers). CT-Bus relies on this to estimate tiny
// connectivity increments Delta(e) = lambda(G+e) - lambda(G): with shared
// probes the stochastic error largely cancels in the difference.
#ifndef CTBUS_LINALG_HUTCHINSON_H_
#define CTBUS_LINALG_HUTCHINSON_H_

#include <vector>

#include "linalg/matvec.h"
#include "linalg/rng.h"

namespace ctbus::linalg {

/// Draws `probes` Gaussian probe vectors of dimension `dim`.
/// Throws std::invalid_argument if probes < 1.
std::vector<std::vector<double>> MakeGaussianProbes(int dim, int probes,
                                                    Rng* rng);

/// Estimates tr(exp(A)) with `probes` fresh Gaussian probes and
/// `steps`-iteration Lanczos quadrature per probe.
/// Throws std::invalid_argument if probes < 1 (an empty average would be a
/// silent 0/0 NaN that poisons every cached Precompute entry built from it).
double EstimateTraceExp(const MatVec& a, int probes, int steps, Rng* rng);

/// Same estimator but with caller-supplied probes (common random numbers):
/// all probes through one LanczosExpQuadratureBatch call, quadratures
/// summed in probe order. Throws std::invalid_argument if `probes` is
/// empty (same 0/0 hazard).
double EstimateTraceExpWithProbes(
    const MatVec& a, const std::vector<std::vector<double>>& probes,
    int steps);

/// Forwards to EstimateTraceExpWithProbes. There is one quadrature kernel;
/// this name stays for callers written against the former batched route.
double EstimateTraceExpBatched(
    const MatVec& a, const std::vector<std::vector<double>>& probes,
    int steps);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_HUTCHINSON_H_
