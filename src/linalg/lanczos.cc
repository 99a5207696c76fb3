#include "linalg/lanczos.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "linalg/dense_eigen.h"
#include "linalg/vector_ops.h"

namespace ctbus::linalg {

namespace {

// beta below this is treated as an invariant-subspace breakdown.
constexpr double kBreakdownTol = 1e-12;

}  // namespace

LanczosResult LanczosTridiagonalize(const MatVec& a,
                                    const std::vector<double>& v0,
                                    const LanczosOptions& options) {
  const int n = a.dim();
  assert(static_cast<int>(v0.size()) == n);
  assert(options.steps >= 1);
  const bool keep_basis = options.keep_basis || options.full_reorthogonalize;

  LanczosResult result;
  std::vector<double> v = v0;
  if (Normalize(&v) == 0.0) {
    // Zero start vector: T is the 1x1 zero matrix.
    result.alpha.push_back(0.0);
    result.broke_down = true;
    if (keep_basis) result.basis.push_back(v);
    return result;
  }

  std::vector<double> v_prev(n, 0.0);
  std::vector<double> w(n, 0.0);
  double beta_prev = 0.0;

  for (int j = 0; j < options.steps; ++j) {
    if (keep_basis) result.basis.push_back(v);
    a.Apply(v, &w);
    const double alpha = Dot(w, v);
    result.alpha.push_back(alpha);
    // w <- w - alpha v - beta_prev v_prev
    Axpy(-alpha, v, &w);
    if (j > 0) Axpy(-beta_prev, v_prev, &w);
    if (options.full_reorthogonalize) {
      // Two passes of classical Gram-Schmidt against the stored basis keep
      // the basis orthogonal to machine precision.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& q : result.basis) {
          const double coef = Dot(w, q);
          Axpy(-coef, q, &w);
        }
      }
    }
    const double beta = Norm2(w);
    if (j + 1 == options.steps) break;
    if (beta < kBreakdownTol) {
      result.broke_down = true;
      break;
    }
    result.beta.push_back(beta);
    v_prev = v;
    v = w;
    Scale(1.0 / beta, &v);
    beta_prev = beta;
  }
  return result;
}

std::vector<double> LanczosExpApply(const MatVec& a,
                                    const std::vector<double>& v, int steps) {
  const int n = a.dim();
  const double v_norm = Norm2(v);
  std::vector<double> s(n, 0.0);
  if (v_norm == 0.0) return s;

  LanczosOptions options;
  options.steps = steps;
  options.keep_basis = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v, options);
  const int t = static_cast<int>(lanczos.alpha.size());

  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
  // exp(T) e1 = Z exp(diag(theta)) Z^T e1; coefficient of basis vector i is
  // sum_j exp(theta_j) * Z[0][j] * Z[i][j].
  std::vector<double> coeffs(t, 0.0);
  for (int j = 0; j < t; ++j) {
    const double weight =
        std::exp(tri.eigenvalues[j]) * tri.eigenvectors.At(0, j);
    for (int i = 0; i < t; ++i) {
      coeffs[i] += weight * tri.eigenvectors.At(i, j);
    }
  }
  for (int i = 0; i < t; ++i) {
    Axpy(v_norm * coeffs[i], lanczos.basis[i], &s);
  }
  return s;
}

namespace {

// Probes per lane block of the quadrature kernel. The kernel's time is in
// the strictly ordered per-lane dot/norm reductions, not in the matvec;
// interleaving kLanes independent probes gives that many independent
// dependency chains per pass. 8 lanes measure no faster than 4.
constexpr int kLanes = 4;

// Per-call scratch of the quadrature kernel, sized for one full block and
// reused by every block of the call.
struct QuadratureWorkspace {
  QuadratureWorkspace(int n, int steps)
      : v(static_cast<std::size_t>(n) * kLanes),
        w(v.size()),
        v_prev(v.size()) {
    for (int l = 0; l < kLanes; ++l) {
      alpha[l].reserve(steps);
      beta[l].reserve(steps);
    }
  }

  // Lane-interleaved Lanczos vectors: lane l of element i lives at
  // [i * L + l] for a block of L lanes (MatVec::ApplyBatch's layout).
  std::vector<double> v;
  std::vector<double> w;
  std::vector<double> v_prev;
  std::array<std::vector<double>, kLanes> alpha;
  std::array<std::vector<double>, kLanes> beta;
};

// Lanczos quadrature for the L probes starting at probes[0], written to
// out[0..L). Lane l follows LanczosTridiagonalize's FP sequence exactly:
// every element-wise op matches Axpy/Scale, and every reduction walks
// i = 0..n-1 in one chain per lane, as Dot/Norm2 do. A lane that is zero
// or breaks down drops out alone; its vectors are zeroed so the shared
// passes keep computing on finite values.
template <int L>
void QuadratureBlock(const MatVec& a, const std::vector<double>* const* probes,
                     int steps, QuadratureWorkspace* ws, double* out) {
  const int n = a.dim();
  double* v = ws->v.data();
  double* w = ws->w.data();
  double* v_prev = ws->v_prev.data();
  double v_norm[L] = {};
  double scale[L] = {};
  double alpha[L] = {};
  double beta_prev[L] = {};
  bool active[L] = {};
  int num_active = 0;

  for (int l = 0; l < L; ++l) {
    assert(static_cast<int>(probes[l]->size()) == n);
  }
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < L; ++l) {
      const double x = (*probes[l])[i];
      v[i * L + l] = x;
      v_norm[l] += x * x;
    }
  }
  for (int l = 0; l < L; ++l) {
    v_norm[l] = std::sqrt(v_norm[l]);
    active[l] = v_norm[l] != 0.0;
    num_active += active[l];
    scale[l] = active[l] ? 1.0 / v_norm[l] : 0.0;
    ws->alpha[l].clear();
    ws->beta[l].clear();
  }
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < L; ++l) v[i * L + l] *= scale[l];
  }

  for (int j = 0; j < steps && num_active > 0; ++j) {
    // w = A v and alpha = Dot(w, v).
    a.ApplyBatch(v, L, w);
    for (int l = 0; l < L; ++l) alpha[l] = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int l = 0; l < L; ++l) alpha[l] += w[i * L + l] * v[i * L + l];
    }
    // w = (w - alpha v) - beta_prev v_prev and beta = Norm2(w), per element
    // in Axpy, Axpy, Norm2 order.
    double beta[L] = {};
    if (j == 0) {
      for (int i = 0; i < n; ++i) {
        for (int l = 0; l < L; ++l) {
          double x = w[i * L + l];
          x += (-alpha[l]) * v[i * L + l];
          w[i * L + l] = x;
          beta[l] += x * x;
        }
      }
    } else {
      for (int i = 0; i < n; ++i) {
        for (int l = 0; l < L; ++l) {
          double x = w[i * L + l];
          x += (-alpha[l]) * v[i * L + l];
          x += (-beta_prev[l]) * v_prev[i * L + l];
          w[i * L + l] = x;
          beta[l] += x * x;
        }
      }
    }
    for (int l = 0; l < L; ++l) {
      beta[l] = std::sqrt(beta[l]);
      if (active[l]) {
        ws->alpha[l].push_back(alpha[l]);
        if (j + 1 < steps && !(beta[l] < kBreakdownTol)) {
          ws->beta[l].push_back(beta[l]);
        } else {
          // Last step, or an invariant subspace: this lane's T is done.
          active[l] = false;
          --num_active;
        }
      }
      scale[l] = active[l] ? 1.0 / beta[l] : 0.0;
      beta_prev[l] = active[l] ? beta[l] : 0.0;
    }
    if (j + 1 == steps) break;
    // v_prev <- v, v <- w / beta; the old v_prev becomes the next w.
    std::swap(v_prev, v);
    std::swap(v, w);
    for (int i = 0; i < n; ++i) {
      for (int l = 0; l < L; ++l) v[i * L + l] *= scale[l];
    }
  }

  for (int l = 0; l < L; ++l) {
    out[l] = v_norm[l] == 0.0
                 ? 0.0
                 : v_norm[l] * v_norm[l] *
                       TridiagonalExpQuadrature(ws->alpha[l], ws->beta[l]);
  }
}

// Runs `count` probes through the kernel in blocks of kLanes; the last
// block is narrower.
void QuadratureBlocks(const MatVec& a,
                      const std::vector<double>* const* probes, int count,
                      int steps, double* out) {
  if (count == 0) return;
  assert(steps >= 1);
  QuadratureWorkspace ws(a.dim(), steps);
  static_assert(kLanes == 4, "the switch below dispatches widths 1..4");
  for (int first = 0; first < count; first += kLanes) {
    const std::vector<double>* const* block = probes + first;
    double* block_out = out + first;
    switch (std::min(kLanes, count - first)) {
      case 1: QuadratureBlock<1>(a, block, steps, &ws, block_out); break;
      case 2: QuadratureBlock<2>(a, block, steps, &ws, block_out); break;
      case 3: QuadratureBlock<3>(a, block, steps, &ws, block_out); break;
      default: QuadratureBlock<kLanes>(a, block, steps, &ws, block_out);
    }
  }
}

}  // namespace

double LanczosExpQuadrature(const MatVec& a, const std::vector<double>& v,
                            int steps) {
  const std::vector<double>* probe = &v;
  double quad = 0.0;
  QuadratureBlocks(a, &probe, 1, steps, &quad);
  return quad;
}

std::vector<double> LanczosExpQuadratureBatch(
    const MatVec& a, const std::vector<std::vector<double>>& vs, int steps) {
  std::vector<const std::vector<double>*> probes;
  probes.reserve(vs.size());
  for (const auto& v : vs) probes.push_back(&v);
  std::vector<double> results(vs.size(), 0.0);
  QuadratureBlocks(a, probes.data(), static_cast<int>(vs.size()), steps,
                   results.data());
  return results;
}

std::vector<double> TopEigenvalues(const MatVec& a, int k, int iters,
                                   Rng* rng) {
  const int n = a.dim();
  assert(k >= 0);
  if (k == 0 || n == 0) return {};
  k = std::min(k, n);
  iters = std::min(std::max(iters, k), n);

  std::vector<double> v0(n);
  FillGaussian(rng, &v0);
  LanczosOptions options;
  options.steps = iters;
  options.full_reorthogonalize = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v0, options);
  SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/false);
  // Ritz values come out ascending; return the top k descending. If the
  // iteration broke down early we may have fewer than k Ritz values — pad
  // with the smallest (repeated eigenvalues on an invariant subspace).
  std::vector<double> top;
  const int available = static_cast<int>(tri.eigenvalues.size());
  for (int i = 0; i < k; ++i) {
    const int idx = available - 1 - i;
    top.push_back(tri.eigenvalues[std::max(idx, 0)]);
  }
  return top;
}

TopEigenpairsResult TopEigenpairs(const MatVec& a, int k, int iters,
                                  Rng* rng) {
  const int n = a.dim();
  TopEigenpairsResult result;
  assert(k >= 0);
  if (k == 0 || n == 0) return result;
  k = std::min(k, n);
  iters = std::min(std::max(iters, k), n);

  std::vector<double> v0(n);
  FillGaussian(rng, &v0);
  LanczosOptions options;
  options.steps = iters;
  options.full_reorthogonalize = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v0, options);
  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
  const int t = static_cast<int>(tri.eigenvalues.size());
  const int available = std::min(k, t);
  for (int i = 0; i < available; ++i) {
    const int idx = t - 1 - i;  // ascending -> take from the top
    result.eigenvalues.push_back(tri.eigenvalues[idx]);
    // Ritz vector: z = V * y.
    std::vector<double> ritz(n, 0.0);
    for (int row = 0; row < t; ++row) {
      Axpy(tri.eigenvectors.At(row, idx), lanczos.basis[row], &ritz);
    }
    Normalize(&ritz);
    result.eigenvectors.push_back(std::move(ritz));
  }
  return result;
}

double SpectralNormEstimate(const MatVec& a, int iters, Rng* rng) {
  const int n = a.dim();
  if (n == 0) return 0.0;
  std::vector<double> v0(n);
  FillGaussian(rng, &v0);
  LanczosOptions options;
  options.steps = std::min(iters, n);
  options.full_reorthogonalize = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v0, options);
  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/false);
  if (tri.eigenvalues.empty()) return 0.0;
  return std::max(std::abs(tri.eigenvalues.front()),
                  std::abs(tri.eigenvalues.back()));
}

}  // namespace ctbus::linalg
