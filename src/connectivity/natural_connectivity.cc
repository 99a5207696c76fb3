#include "connectivity/natural_connectivity.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/hutchinson.h"
#include "linalg/rng.h"
#include "linalg/vector_ops.h"

namespace ctbus::connectivity {

double NaturalConnectivityExact(const linalg::SymmetricSparseMatrix& a) {
  const int n = a.dim();
  if (n == 0) return -std::numeric_limits<double>::infinity();
  const auto eigenvalues =
      linalg::SymmetricEigenvalues(linalg::DenseMatrix::FromSparse(a));
  // Factor out the largest eigenvalue to keep the sum well-conditioned even
  // for graphs with large spectral radius.
  const double lambda_max = eigenvalues.back();
  double scaled_sum = 0.0;
  for (double w : eigenvalues) scaled_sum += std::exp(w - lambda_max);
  return lambda_max + std::log(scaled_sum) - std::log(static_cast<double>(n));
}

double NaturalConnectivityEstimate(const linalg::SymmetricSparseMatrix& a,
                                   const EstimatorOptions& options) {
  const ConnectivityEstimator estimator(a.dim(), options);
  return estimator.Estimate(a);
}

ConnectivityEstimator::ConnectivityEstimator(int dim,
                                             const EstimatorOptions& options)
    : dim_(dim), lanczos_steps_(options.lanczos_steps) {
  if (options.probes < 1) {
    throw std::invalid_argument("ConnectivityEstimator: probes must be >= 1");
  }
  if (options.lanczos_steps < 1) {
    throw std::invalid_argument(
        "ConnectivityEstimator: lanczos_steps must be >= 1");
  }
  linalg::Rng rng(options.seed);
  probes_ = linalg::MakeGaussianProbes(dim, options.probes, &rng);
}

double ConnectivityEstimator::EstimateTraceExp(const linalg::MatVec& a) const {
  assert(a.dim() == dim_);
  return linalg::EstimateTraceExpWithProbes(a, probes_, lanczos_steps_);
}

double ConnectivityEstimator::LogOverDim(double trace) const {
  // The stochastic estimate of a positive trace can in principle come out
  // non-positive for adversarial probe draws; clamp to a tiny value so the
  // log stays defined.
  return std::log(std::max(trace, 1e-300) / static_cast<double>(dim_));
}

double ConnectivityEstimator::Estimate(const linalg::MatVec& a) const {
  if (dim_ == 0) return -std::numeric_limits<double>::infinity();
  return LogOverDim(EstimateTraceExp(a));
}

}  // namespace ctbus::connectivity
