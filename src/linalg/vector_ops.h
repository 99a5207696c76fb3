// Elementary dense vector kernels shared by the Lanczos and Hutchinson code.
#ifndef CTBUS_LINALG_VECTOR_OPS_H_
#define CTBUS_LINALG_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

#include "linalg/rng.h"

namespace ctbus::linalg {

/// Dot product <x, y>. Requires x.size() == y.size().
double Dot(const std::vector<double>& x, const std::vector<double>& y);

/// Euclidean norm ||x||_2.
double Norm2(const std::vector<double>& x);

/// y += alpha * x. Requires x.size() == y.size().
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);

/// x *= alpha.
void Scale(double alpha, std::vector<double>* x);

/// Fills x with i.i.d. standard Gaussian entries drawn from rng.
void FillGaussian(Rng* rng, std::vector<double>* x);

/// Normalizes x to unit Euclidean norm; returns the original norm.
/// If ||x|| == 0 the vector is left unchanged and 0 is returned.
double Normalize(std::vector<double>* x);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_VECTOR_OPS_H_
