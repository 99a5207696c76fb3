#include "linalg/csr_matrix.h"

#include <vector>

#include <gtest/gtest.h>

#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "tests/matrix_builders.h"

namespace ctbus::linalg {
namespace {

SymmetricSparseMatrix RandomGraph(int n, double avg_degree, Rng* rng) {
  return testutil::RandomGraph(n, avg_degree, rng, [](Rng* r) {
    return r->NextDouble(-2.0, 2.0);
  });
}

std::vector<double> RandomVector(int n, Rng* rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng->NextGaussian();
  return x;
}

TEST(CsrMatrixTest, FromSparsePreservesShape) {
  Rng rng(1);
  const auto a = RandomGraph(50, 4.0, &rng);
  const CsrMatrix csr = CsrMatrix::FromSparse(a);
  EXPECT_EQ(csr.dim(), a.dim());
  // Symmetric pairs are stored twice in CSR (once per row).
  EXPECT_EQ(csr.num_values(),
            static_cast<std::int64_t>(2 * a.num_entries()));
}

TEST(CsrMatrixTest, ApplyBitIdenticalToSparseApply) {
  // The determinism contract: CSR accumulates each row in stored entry
  // order through one dependency chain, so results match
  // SymmetricSparseMatrix::Apply bit for bit — not just approximately.
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(100 + seed);
    const int n = 10 + static_cast<int>(rng.NextIndex(120));
    const auto a = RandomGraph(n, 5.0, &rng);
    const CsrMatrix csr = CsrMatrix::FromSparse(a);
    const auto x = RandomVector(n, &rng);
    std::vector<double> y_sparse(n), y_csr(n);
    a.Apply(x, &y_sparse);
    csr.Apply(x, &y_csr);
    for (int i = 0; i < n; ++i) EXPECT_EQ(y_sparse[i], y_csr[i]);
  }
}

TEST(CsrMatrixTest, ApplyBatchMatchesIndependentAppliesBitForBit) {
  // Batch sizes on both sides of the 32-lane blocking boundary.
  for (int batch : {1, 2, 3, 7, 32, 33, 40}) {
    Rng rng(200 + batch);
    const int n = 64;
    const auto a = RandomGraph(n, 4.0, &rng);
    const CsrMatrix csr = CsrMatrix::FromSparse(a);
    std::vector<std::vector<double>> lanes;
    for (int b = 0; b < batch; ++b) lanes.push_back(RandomVector(n, &rng));
    // SoA interleave: element (i, b) at x[i * batch + b].
    std::vector<double> x(static_cast<std::size_t>(n) * batch);
    for (int i = 0; i < n; ++i) {
      for (int b = 0; b < batch; ++b) x[i * batch + b] = lanes[b][i];
    }
    std::vector<double> y(x.size(), 0.0);
    csr.ApplyBatch(x.data(), batch, y.data());
    for (int b = 0; b < batch; ++b) {
      std::vector<double> expected(n);
      csr.Apply(lanes[b], &expected);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y[i * batch + b], expected[i])
            << "batch=" << batch << " lane=" << b << " row=" << i;
      }
    }
  }
}

TEST(CsrMatrixTest, AssignFromReusesAcrossShapes) {
  // Copying a new matrix into the same object must give correct results
  // whether the storage grows or shrinks.
  Rng rng(7);
  CsrMatrix csr;
  for (int n : {30, 80, 20}) {
    const auto a = RandomGraph(n, 4.0, &rng);
    csr.AssignFrom(a);
    EXPECT_EQ(csr.dim(), n);
    const auto x = RandomVector(n, &rng);
    std::vector<double> y_sparse(n), y_csr(n);
    a.Apply(x, &y_sparse);
    csr.Apply(x, &y_csr);
    for (int i = 0; i < n; ++i) EXPECT_EQ(y_sparse[i], y_csr[i]);
  }
}

TEST(CsrMatrixTest, EmptyMatrixApplies) {
  const SymmetricSparseMatrix a(5, {});  // no entries
  const CsrMatrix csr = CsrMatrix::FromSparse(a);
  EXPECT_EQ(csr.num_values(), 0);
  std::vector<double> y(5, 1.0);
  csr.Apply(std::vector<double>(5, 3.0), &y);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

TEST(CsrMatrixTest, ZeroDimensionalMatrix) {
  const SymmetricSparseMatrix a(0, {});
  const CsrMatrix csr = CsrMatrix::FromSparse(a);
  EXPECT_EQ(csr.dim(), 0);
  std::vector<double> x, y;
  csr.Apply(x, &y);
  EXPECT_TRUE(y.empty());
}

}  // namespace
}  // namespace ctbus::linalg
