#include "connectivity/edge_increment.h"

#include <cassert>

namespace ctbus::connectivity {

double EdgeIncrement(linalg::SymmetricSparseMatrix* base, double base_lambda,
                     const ConnectivityEstimator& estimator, int u, int v) {
  if (base->Contains(u, v)) return 0.0;
  base->Set(u, v, 1.0);
  const double lambda_after = estimator.Estimate(*base);
  base->Remove(u, v);
  return lambda_after - base_lambda;
}

double EdgeSetIncrement(linalg::SymmetricSparseMatrix* base,
                        double base_lambda,
                        const ConnectivityEstimator& estimator,
                        const std::vector<std::pair<int, int>>& stop_pairs) {
  std::vector<std::pair<int, int>> added;
  added.reserve(stop_pairs.size());
  for (const auto& [u, v] : stop_pairs) {
    if (!base->Contains(u, v)) {
      base->Set(u, v, 1.0);
      added.emplace_back(u, v);
    }
  }
  const double lambda_after = estimator.Estimate(*base);
  for (const auto& [u, v] : added) base->Remove(u, v);
  return lambda_after - base_lambda;
}

}  // namespace ctbus::connectivity
