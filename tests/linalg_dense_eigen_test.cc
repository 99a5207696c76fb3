#include "linalg/dense_eigen.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "matrix_builders.h"

namespace ctbus::linalg {
namespace {

DenseMatrix RandomSymmetric(int n, Rng* rng) {
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng->NextGaussian();
      a.Set(i, j, v);
      a.Set(j, i, v);
    }
  }
  return a;
}

// Adjacency matrix of the path graph P_n; eigenvalues are
// 2 cos(i*pi/(n+1)), i = 1..n (closed form used in Lemma 4).
DenseMatrix PathGraphAdjacency(int n) {
  DenseMatrix a(n, n);
  for (int i = 0; i + 1 < n; ++i) {
    a.Set(i, i + 1, 1.0);
    a.Set(i + 1, i, 1.0);
  }
  return a;
}

// Block-diagonal matrix: a disjoint union of the blocks' graphs.
DenseMatrix BlockDiagonal(const std::vector<DenseMatrix>& blocks) {
  int n = 0;
  for (const DenseMatrix& block : blocks) n += block.rows();
  DenseMatrix a(n, n);
  int offset = 0;
  for (const DenseMatrix& block : blocks) {
    for (int i = 0; i < block.rows(); ++i) {
      for (int j = 0; j < block.cols(); ++j) {
        a.Set(offset + i, offset + j, block.At(i, j));
      }
    }
    offset += block.rows();
  }
  return a;
}

// Adjacency of K_{p,q}: eigenvalues +-sqrt(pq) and 0 (p + q - 2 times).
// K_{1,q} is the star on q + 1 stops.
DenseMatrix CompleteBipartite(int p, int q) {
  DenseMatrix a(p + q, p + q);
  for (int i = 0; i < p; ++i) {
    for (int j = p; j < p + q; ++j) {
      a.Set(i, j, 1.0);
      a.Set(j, i, 1.0);
    }
  }
  return a;
}

// The values-only solve must return the eigenvector solve's spectrum to
// within 1e-12 of its scale max(1, max |lambda|).
void ExpectSameSpectrum(const std::vector<double>& with_vectors,
                        const std::vector<double>& values_only) {
  ASSERT_EQ(with_vectors.size(), values_only.size());
  double scale = 1.0;
  for (double v : with_vectors) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < values_only.size(); ++i) {
    EXPECT_NEAR(values_only[i], with_vectors[i], 1e-12 * scale)
        << "eigenvalue " << i;
  }
}

TEST(DenseEigenTest, EmptyMatrix) {
  const auto result = SymmetricEigen(DenseMatrix(0, 0), true);
  EXPECT_TRUE(result.eigenvalues.empty());
}

TEST(DenseEigenTest, OneByOne) {
  DenseMatrix a(1, 1);
  a.Set(0, 0, 4.2);
  const auto values = SymmetricEigenvalues(a);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_NEAR(values[0], 4.2, 1e-14);
}

TEST(DenseEigenTest, TwoByTwoKnownSpectrum) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  DenseMatrix a(2, 2);
  a.Set(0, 0, 2.0);
  a.Set(1, 1, 2.0);
  a.Set(0, 1, 1.0);
  a.Set(1, 0, 1.0);
  const auto values = SymmetricEigenvalues(a);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(DenseEigenTest, DiagonalMatrixSpectrumSorted) {
  DenseMatrix a(3, 3);
  a.Set(0, 0, 5.0);
  a.Set(1, 1, -2.0);
  a.Set(2, 2, 1.0);
  const auto values = SymmetricEigenvalues(a);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], -2.0, 1e-12);
  EXPECT_NEAR(values[1], 1.0, 1e-12);
  EXPECT_NEAR(values[2], 5.0, 1e-12);
}

TEST(DenseEigenTest, PathGraphClosedForm) {
  const int n = 9;
  const auto values = SymmetricEigenvalues(PathGraphAdjacency(n));
  ASSERT_EQ(values.size(), static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) {
    const double expected = 2.0 * std::cos(i * M_PI / (n + 1));
    // Eigenvalues ascending; closed form descending in i.
    EXPECT_NEAR(values[n - i], expected, 1e-12);
  }
}

TEST(DenseEigenTest, CompleteGraphSpectrum) {
  // K_n adjacency has eigenvalues n-1 (once) and -1 (n-1 times).
  const int n = 7;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) a.Set(i, j, 1.0);
    }
  }
  const auto values = SymmetricEigenvalues(a);
  for (int i = 0; i + 1 < n; ++i) EXPECT_NEAR(values[i], -1.0, 1e-12);
  EXPECT_NEAR(values[n - 1], n - 1.0, 1e-12);
}

TEST(DenseEigenTest, TraceEqualsEigenvalueSum) {
  Rng rng(31);
  const DenseMatrix a = RandomSymmetric(20, &rng);
  double trace = 0.0;
  for (int i = 0; i < 20; ++i) trace += a.At(i, i);
  const auto values = SymmetricEigenvalues(a);
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_NEAR(sum, trace, 1e-10);
}

TEST(DenseEigenTest, EigenvectorsSatisfyDefinition) {
  Rng rng(32);
  const DenseMatrix a = RandomSymmetric(15, &rng);
  const auto result = SymmetricEigen(a, /*compute_vectors=*/true);
  for (int j = 0; j < 15; ++j) {
    const std::vector<double> x = result.eigenvectors.Column(j);
    std::vector<double> ax(15);
    a.Apply(x, &ax);
    for (int i = 0; i < 15; ++i) {
      EXPECT_NEAR(ax[i], result.eigenvalues[j] * x[i], 1e-10);
    }
  }
}

TEST(DenseEigenTest, EigenvectorsOrthonormal) {
  Rng rng(33);
  const DenseMatrix a = RandomSymmetric(12, &rng);
  const auto result = SymmetricEigen(a, /*compute_vectors=*/true);
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      const double d =
          Dot(result.eigenvectors.Column(i), result.eigenvectors.Column(j));
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(DenseEigenTest, ValuesOnlyMatchesFullSolve) {
  Rng rng(34);
  const DenseMatrix a = RandomSymmetric(25, &rng);
  const auto full = SymmetricEigen(a, /*compute_vectors=*/true);
  const auto values_only = SymmetricEigenvalues(a);
  ASSERT_EQ(full.eigenvalues.size(), values_only.size());
  for (std::size_t i = 0; i < values_only.size(); ++i) {
    EXPECT_NEAR(full.eigenvalues[i], values_only[i], 1e-10);
  }

  // Pinned-seed graph adjacencies (the matrices a local trace increment
  // solves) at every n up to 120, then inputs with heavy multiplicity:
  // disjoint unions, zero matrices, stars and complete bipartite graphs.
  std::vector<std::pair<std::string, DenseMatrix>> inputs;
  Rng graph_rng(36);
  for (int n = 1; n <= 120; ++n) {
    inputs.emplace_back(
        "random graph n=" + std::to_string(n),
        DenseMatrix::FromSparse(
            testutil::RandomGraph(n, 1.0 + n % 6, &graph_rng)));
  }
  const DenseMatrix block =
      DenseMatrix::FromSparse(testutil::RandomGraph(12, 3.0, &graph_rng));
  inputs.emplace_back("three copies of one graph",
                      BlockDiagonal({block, block, block}));
  inputs.emplace_back("graph plus stars and isolated stops",
                      BlockDiagonal({block, CompleteBipartite(1, 6),
                                     DenseMatrix(3, 3), CompleteBipartite(1, 6),
                                     block}));
  for (const int n : {1, 2, 7, 40}) {
    inputs.emplace_back("zero n=" + std::to_string(n), DenseMatrix(n, n));
  }
  for (const int leaves : {1, 2, 5, 30, 90}) {
    inputs.emplace_back("star leaves=" + std::to_string(leaves),
                        CompleteBipartite(1, leaves));
  }
  for (const auto& [p, q] :
       std::vector<std::pair<int, int>>{{2, 2}, {3, 5}, {7, 7}, {10, 40}}) {
    inputs.emplace_back(
        "K_" + std::to_string(p) + "," + std::to_string(q),
        CompleteBipartite(p, q));
  }
  for (const auto& [label, matrix] : inputs) {
    SCOPED_TRACE(label);
    ExpectSameSpectrum(SymmetricEigen(matrix, true).eigenvalues,
                       SymmetricEigenvalues(matrix));
  }
}

TEST(DenseEigenTest, TridiagonalMatchesDense) {
  Rng rng(35);
  const int n = 14;
  std::vector<double> diag(n), off(n - 1);
  for (double& v : diag) v = rng.NextGaussian();
  for (double& v : off) v = rng.NextGaussian();
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) a.Set(i, i, diag[i]);
  for (int i = 0; i + 1 < n; ++i) {
    a.Set(i, i + 1, off[i]);
    a.Set(i + 1, i, off[i]);
  }
  const auto tri = TridiagonalEigen(diag, off, /*compute_vectors=*/true);
  const auto dense = SymmetricEigenvalues(a);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(tri.eigenvalues[i], dense[i], 1e-10);
  // Eigenvectors must diagonalize the tridiagonal matrix.
  for (int j = 0; j < n; ++j) {
    const auto x = tri.eigenvectors.Column(j);
    std::vector<double> ax(n);
    a.Apply(x, &ax);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(ax[i], tri.eigenvalues[j] * x[i], 1e-10);
    }
  }

  // Pinned-seed tridiagonals at every n up to 120: Gaussian entries, path
  // subgraphs (0/1 subdiagonal, so a disjoint union of paths with heavy
  // multiplicity), copies of one block split by zero couplings, and zero.
  std::vector<std::tuple<std::string, std::vector<double>,
                         std::vector<double>>>
      inputs;
  Rng tri_rng(37);
  for (int m = 1; m <= 120; ++m) {
    std::vector<double> gauss_diag(m), gauss_off(m - 1);
    for (double& v : gauss_diag) v = tri_rng.NextGaussian();
    for (double& v : gauss_off) v = tri_rng.NextGaussian();
    inputs.emplace_back("gaussian n=" + std::to_string(m), gauss_diag,
                        gauss_off);
    std::vector<double> path_off(m - 1);
    for (double& v : path_off) v = tri_rng.NextIndex(4) == 0 ? 0.0 : 1.0;
    inputs.emplace_back("path subgraph n=" + std::to_string(m),
                        std::vector<double>(m, 0.0), path_off);
  }
  std::vector<double> block_diag, block_off;
  for (int copy = 0; copy < 4; ++copy) {
    if (copy > 0) block_off.push_back(0.0);
    for (int i = 0; i < n; ++i) block_diag.push_back(diag[i]);
    for (int i = 0; i + 1 < n; ++i) block_off.push_back(off[i]);
  }
  inputs.emplace_back("four copies of one block", block_diag, block_off);
  for (const int m : {1, 2, 9, 60}) {
    inputs.emplace_back("zero n=" + std::to_string(m),
                        std::vector<double>(m, 0.0),
                        std::vector<double>(m - 1, 0.0));
  }
  for (const auto& [label, d, e] : inputs) {
    SCOPED_TRACE(label);
    ExpectSameSpectrum(TridiagonalEigen(d, e, true).eigenvalues,
                       TridiagonalEigen(d, e, false).eigenvalues);
  }
}

TEST(DenseEigenTest, TridiagonalSingleElement) {
  const auto result = TridiagonalEigen({3.0}, {}, true);
  ASSERT_EQ(result.eigenvalues.size(), 1u);
  EXPECT_NEAR(result.eigenvalues[0], 3.0, 1e-14);
  EXPECT_NEAR(result.eigenvectors.At(0, 0), 1.0, 1e-14);
}

class DenseEigenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DenseEigenPropertyTest, ReconstructionFromSpectrum) {
  Rng rng(1000 + GetParam());
  const int n = GetParam();
  const DenseMatrix a = RandomSymmetric(n, &rng);
  const auto result = SymmetricEigen(a, /*compute_vectors=*/true);
  // Rebuild A = Z diag(w) Z^T and compare entrywise.
  DenseMatrix rebuilt(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += result.eigenvalues[k] * result.eigenvectors.At(i, k) *
               result.eigenvectors.At(j, k);
      }
      rebuilt.Set(i, j, acc);
    }
  }
  EXPECT_LT(rebuilt.FrobeniusDistance(a), 1e-9 * std::max(1, n));
}

TEST_P(DenseEigenPropertyTest, SpectrumInvariantUnderSymmetricPermutation) {
  Rng rng(2000 + GetParam());
  const int n = GetParam();
  const DenseMatrix a = RandomSymmetric(n, &rng);
  // Permute rows+columns by reversing indices; spectrum must not change.
  DenseMatrix p(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) p.Set(i, j, a.At(n - 1 - i, n - 1 - j));
  }
  const auto va = SymmetricEigenvalues(a);
  const auto vp = SymmetricEigenvalues(p);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(va[i], vp[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseEigenPropertyTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace ctbus::linalg
