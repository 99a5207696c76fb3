#include "linalg/vector_ops.h"

#include <cassert>
#include <cmath>

namespace ctbus::linalg {

double Dot(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double Norm2(const std::vector<double>& x) { return std::sqrt(Dot(x, x)); }

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  assert(x.size() == y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, std::vector<double>* x) {
  for (double& v : *x) v *= alpha;
}

void FillGaussian(Rng* rng, std::vector<double>* x) {
  for (double& v : *x) v = rng->NextGaussian();
}

double Normalize(std::vector<double>* x) {
  const double norm = Norm2(*x);
  if (norm > 0.0) Scale(1.0 / norm, x);
  return norm;
}

}  // namespace ctbus::linalg
