// Natural connectivity lambda(G) = ln( tr(e^A) / n )  (Definition 4 /
// Equation 5). Two evaluation paths:
//   * exact, via full dense eigendecomposition (the Table 2 baseline), and
//   * estimated, via Hutchinson + Lanczos quadrature (Section 5.1).
// The reusable ConnectivityEstimator pins its Gaussian probes at
// construction, so its estimates are deterministic. It estimates whole
// networks only: the precompute's tr_0 anchor, Table 2 and Figure 1.
// Connectivity increments are exact local trace increments
// (local_increment.h), not differences of two estimates. Every estimate runs
// on the adjacency matrix as-is through linalg's one lane-blocked
// quadrature kernel (LanczosExpQuadratureBatch): freezing into a CSR copy
// first measured slower, since the matvec is not where the time goes.
#ifndef CTBUS_CONNECTIVITY_NATURAL_CONNECTIVITY_H_
#define CTBUS_CONNECTIVITY_NATURAL_CONNECTIVITY_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "linalg/matvec.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {

/// Tuning knobs for the stochastic estimator. Defaults are the paper's
/// (s = 50 Hutchinson repetitions, t = 10 Lanczos iterations).
struct EstimatorOptions {
  int probes = 50;
  int lanczos_steps = 10;
  std::uint64_t seed = 1;

  /// Field-wise equality: two estimators built from equal options on one
  /// dimension pin the same probes, so they return the same bits.
  friend bool operator==(const EstimatorOptions& a, const EstimatorOptions& b) {
    return std::tie(a.probes, a.lanczos_steps, a.seed) ==
           std::tie(b.probes, b.lanczos_steps, b.seed);
  }
  friend bool operator!=(const EstimatorOptions& a, const EstimatorOptions& b) {
    return !(a == b);
  }
};

/// Exact natural connectivity via full eigendecomposition, O(n^3).
/// Returns -inf for an empty matrix (n = 0).
double NaturalConnectivityExact(const linalg::SymmetricSparseMatrix& a);

/// One-shot stochastic estimate with fresh probes drawn from `options.seed`.
double NaturalConnectivityEstimate(const linalg::SymmetricSparseMatrix& a,
                                   const EstimatorOptions& options);

/// Reusable estimator with a fixed probe set for a fixed dimension.
/// Immutable after construction, so one estimator may serve any number of
/// threads at once.
class ConnectivityEstimator {
 public:
  /// Throws std::invalid_argument unless options.probes >= 1 and
  /// options.lanczos_steps >= 1 (these used to be debug-only asserts; a
  /// release build would silently divide by zero probes).
  ConnectivityEstimator(int dim, const EstimatorOptions& options);

  /// Estimates lambda(A). `a` must have dimension dim().
  double Estimate(const linalg::MatVec& a) const;

  /// Estimates tr(e^A) without the log/normalization: every pinned probe
  /// through linalg::EstimateTraceExpWithProbes.
  double EstimateTraceExp(const linalg::MatVec& a) const;

  int dim() const { return dim_; }
  int probes() const { return static_cast<int>(probes_.size()); }
  int lanczos_steps() const { return lanczos_steps_; }

  /// Approximate resident footprint in bytes — dominated by the pinned
  /// probe vectors (probes() x dim() doubles). Deterministic, O(1).
  std::size_t ApproxBytes() const {
    return sizeof(ConnectivityEstimator) +
           probes_.size() * (sizeof(std::vector<double>) +
                             static_cast<std::size_t>(dim_) * sizeof(double));
  }

 private:
  double LogOverDim(double trace) const;

  int dim_;
  int lanczos_steps_;
  std::vector<std::vector<double>> probes_;
};

}  // namespace ctbus::connectivity

#endif  // CTBUS_CONNECTIVITY_NATURAL_CONNECTIVITY_H_
