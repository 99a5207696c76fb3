// Natural connectivity lambda(G) = ln( tr(e^A) / n )  (Definition 4 /
// Equation 5). Two evaluation paths:
//   * exact, via full dense eigendecomposition (the Table 2 baseline), and
//   * estimated, via Hutchinson + Lanczos quadrature (Section 5.1).
// The reusable ConnectivityEstimator pins its Gaussian probes at
// construction, making estimates deterministic and — crucially — giving
// common random numbers across matrices so connectivity *increments* can be
// resolved well below the single-estimate noise floor. Every estimate runs
// on the adjacency matrix as-is through linalg's one lane-blocked
// quadrature kernel (LanczosExpQuadratureBatch): freezing into a CSR copy
// first measured slower, since the matvec is not where the time goes.
#ifndef CTBUS_CONNECTIVITY_NATURAL_CONNECTIVITY_H_
#define CTBUS_CONNECTIVITY_NATURAL_CONNECTIVITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matvec.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {

/// Probe distribution for Hutchinson's estimator. Both are unbiased;
/// Rademacher (+/-1 entries, Hutchinson's original choice) has lower
/// variance for trace estimation, Gaussian matches the paper's analysis
/// (Equation 6/7 and the Roosta-Khorasani/Ascher sample bound).
enum class ProbeKind {
  kGaussian,
  kRademacher,
};

/// Tuning knobs for the stochastic estimator. Defaults are the paper's
/// (s = 50 Hutchinson repetitions, t = 10 Lanczos iterations).
struct EstimatorOptions {
  int probes = 50;
  int lanczos_steps = 10;
  std::uint64_t seed = 1;
  ProbeKind probe_kind = ProbeKind::kGaussian;
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

  /// The pinned probe vectors (common random numbers across matrices).
  const std::vector<std::vector<double>>& probe_vectors() const {
    return probes_;
  }

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
