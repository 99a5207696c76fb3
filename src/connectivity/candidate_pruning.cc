#include "connectivity/candidate_pruning.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "connectivity/bounds.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"

namespace ctbus::connectivity {

namespace {

// cosh(1) - 1 and sinh(1): the entries of e^E for a single unweighted
// edge perturbation E = e_u e_v^T + e_v e_u^T.
const double kCosh1m1 = std::cosh(1.0) - 1.0;
const double kSinh1 = std::sinh(1.0);

// Probe vectors per LanczosExpQuadratureBatch call. Caps the probe scratch
// at kQuadChunk * n doubles regardless of how many candidates are screened.
constexpr int kQuadChunk = 64;

}  // namespace

CandidateScreen CandidateScreen::Build(
    const linalg::SymmetricSparseMatrix& adjacency, double base_lambda,
    int lanczos_steps, std::uint64_t seed) {
  CandidateScreen screen;
  const int n = adjacency.dim();
  screen.n_ = n;
  if (n == 0) return screen;
  screen.steps_ = std::max(1, lanczos_steps);
  screen.matrix_ = adjacency.Freeze();
  screen.inv_trace_ =
      std::exp(-(base_lambda + std::log(static_cast<double>(n))));

  // M_uu for every vertex: batched unit-vector quadratures, chunked so
  // the scratch stays bounded on city-scale graphs.
  screen.muu_.resize(n);
  std::vector<std::vector<double>> unit_vectors;
  for (int base = 0; base < n; base += kQuadChunk) {
    const int chunk = std::min(kQuadChunk, n - base);
    unit_vectors.assign(chunk, std::vector<double>(n, 0.0));
    for (int l = 0; l < chunk; ++l) unit_vectors[l][base + l] = 1.0;
    const std::vector<double> quads =
        linalg::LanczosExpQuadratureBatch(screen.matrix_, unit_vectors,
                                          screen.steps_);
    for (int l = 0; l < chunk; ++l) screen.muu_[base + l] = quads[l];
  }

  // Uniform k = 1 cap from the (overflow-safe) Lemma 3/4 bounds; the
  // only randomized ingredient of the screen.
  linalg::Rng rng(seed);
  const std::vector<double> top =
      linalg::TopEigenvalues(adjacency, 1, std::min(n, 40), &rng);
  const double general = GeneralUpperBound(base_lambda, top, /*k=*/1, n);
  const double path = PathUpperBound(base_lambda, top, /*k=*/1, n);
  screen.uniform_cap_ = std::max(0.0, std::min(general, path) - base_lambda);
  return screen;
}

double CandidateScreen::BoundFromQuadrature(int u, int v,
                                            double quad_uv) const {
  // Polarization: (e_u + e_v)^T e^A (e_u + e_v) = M_uu + M_vv + 2 M_uv.
  const double muv = 0.5 * (quad_uv - muu_[u] - muu_[v]);
  const double g = kCosh1m1 * (muu_[u] + muu_[v]) + 2.0 * kSinh1 * muv;
  const double x = inv_trace_ * g;
  // tr(e^A e^E) > 0 keeps 1 + x positive in exact arithmetic; guard the
  // log1p domain against quadrature round-off anyway.
  const double gt_bound = x > -1.0 ? std::log1p(x) : 0.0;
  return std::min(gt_bound, uniform_cap_);
}

double CandidateScreen::EdgeBound(int u, int v) const {
  assert(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v);
  std::vector<double> w(n_, 0.0);
  w[u] = 1.0;
  w[v] = 1.0;
  const double quad_uv = linalg::LanczosExpQuadrature(matrix_, w, steps_);
  return BoundFromQuadrature(u, v, quad_uv);
}

std::vector<double> CandidateScreen::EdgeBounds(
    const std::vector<std::pair<int, int>>& edges) const {
  std::vector<double> bounds(edges.size());
  std::vector<std::vector<double>> vectors;
  for (std::size_t base = 0; base < edges.size(); base += kQuadChunk) {
    const std::size_t chunk = std::min<std::size_t>(kQuadChunk,
                                                    edges.size() - base);
    vectors.assign(chunk, std::vector<double>(n_, 0.0));
    for (std::size_t l = 0; l < chunk; ++l) {
      const auto& [u, v] = edges[base + l];
      assert(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v);
      vectors[l][u] = 1.0;
      vectors[l][v] = 1.0;
    }
    const std::vector<double> quads =
        linalg::LanczosExpQuadratureBatch(matrix_, vectors, steps_);
    for (std::size_t l = 0; l < chunk; ++l) {
      const auto& [u, v] = edges[base + l];
      bounds[base + l] = BoundFromQuadrature(u, v, quads[l]);
    }
  }
  return bounds;
}

}  // namespace ctbus::connectivity
