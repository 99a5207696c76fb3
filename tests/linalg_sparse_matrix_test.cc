#include "linalg/sparse_matrix.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/rng.h"

namespace ctbus::linalg {
namespace {

TEST(SparseMatrixTest, EmptyMatrix) {
  SymmetricSparseMatrix m;
  EXPECT_EQ(m.dim(), 0);
  EXPECT_EQ(m.num_entries(), 0);
}

TEST(SparseMatrixTest, SetStoresSymmetrically) {
  SymmetricSparseMatrix m(4);
  m.Set(0, 2, 3.5);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 3.5);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 3.5);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, SetOverwrites) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 0, 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, AddCreatesAndAccumulates) {
  SymmetricSparseMatrix m(3);
  m.Add(0, 1, 1.5);
  m.Add(0, 1, 1.5);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, RemoveExistingEntry) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 2, 2.0);
  EXPECT_TRUE(m.Remove(0, 1));
  EXPECT_FALSE(m.Contains(0, 1));
  EXPECT_FALSE(m.Contains(1, 0));
  EXPECT_DOUBLE_EQ(m.At(1, 2), 2.0);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, RemoveMissingEntryReturnsFalse) {
  SymmetricSparseMatrix m(3);
  EXPECT_FALSE(m.Remove(0, 1));
}

TEST(SparseMatrixTest, AtMissingIsZero) {
  SymmetricSparseMatrix m(3);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
}

TEST(SparseMatrixTest, RowDegreeCounts) {
  SymmetricSparseMatrix m(4);
  m.Set(0, 1, 1.0);
  m.Set(0, 2, 1.0);
  m.Set(0, 3, 1.0);
  EXPECT_EQ(m.RowDegree(0), 3);
  EXPECT_EQ(m.RowDegree(1), 1);
}

TEST(SparseMatrixTest, ApplyMatchesManualProduct) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 2.0);
  m.Set(1, 2, -1.0);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  m.Apply(x, &y);
  // A = [[0,2,0],[2,0,-1],[0,-1,0]]
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -2.0);
}

TEST(SparseMatrixTest, ApplyMatchesDenseOnRandomGraph) {
  Rng rng(99);
  const int n = 40;
  SymmetricSparseMatrix sparse(n);
  for (int trial = 0; trial < 200; ++trial) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u == v) continue;
    sparse.Set(u, v, rng.NextDouble(-2.0, 2.0));
  }
  const DenseMatrix dense = DenseMatrix::FromSparse(sparse);
  std::vector<double> x(n);
  for (double& val : x) val = rng.NextGaussian();
  std::vector<double> ys(n), yd(n);
  sparse.Apply(x, &ys);
  dense.Apply(x, &yd);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrixTest, SpectralNormUpperBoundDominates) {
  // For the path graph P3, ||A||_2 = sqrt(2) ~ 1.414; inf-norm bound is 2.
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(m.SpectralNormUpperBound(), 2.0);
}

TEST(SparseMatrixTest, RejectsDiagonalEntriesInAnyBuildMode) {
  // These used to be plain asserts, which compile out under -DNDEBUG (the
  // release tier) and let a diagonal Set silently corrupt the symmetric
  // invariant. The preconditions are now always-on throws, so this test
  // passes in every build mode.
  SymmetricSparseMatrix m(4);
  EXPECT_THROW(m.Set(2, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(m.Add(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.Remove(3, 3), std::invalid_argument);
  EXPECT_EQ(m.num_entries(), 0u);
}

TEST(SparseMatrixTest, RejectsOutOfRangeIndices) {
  SymmetricSparseMatrix m(4);
  EXPECT_THROW(m.Set(0, 4, 1.0), std::out_of_range);
  EXPECT_THROW(m.Set(-1, 2, 1.0), std::out_of_range);
  EXPECT_THROW(m.Add(4, 0, 1.0), std::out_of_range);
  EXPECT_THROW(m.Remove(0, 7), std::out_of_range);
  EXPECT_EQ(m.num_entries(), 0u);
  // A failed mutation must leave prior state untouched.
  m.Set(0, 1, 2.0);
  EXPECT_THROW(m.Set(0, 9, 1.0), std::out_of_range);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.num_entries(), 1u);
}

TEST(SparseMatrixTest, DenseFromSparseRoundTrip) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 5.0);
  const DenseMatrix d = DenseMatrix::FromSparse(m);
  EXPECT_DOUBLE_EQ(d.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d.At(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d.At(2, 2), 0.0);
}

TEST(SparseMatrixTest, ApplyBatchBitIdenticalToApplyPerLane) {
  // Lane-interleaved batches of every width up to two full 4-lane chunks
  // plus a partial one: lane b must equal Apply on lane b bit for bit.
  Rng rng(31);
  const int n = 40;
  SymmetricSparseMatrix m(n);
  for (int e = 0; e < 90; ++e) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u != v) m.Set(u, v, rng.NextDouble(-2.0, 2.0));
  }
  for (int batch = 1; batch <= 9; ++batch) {
    std::vector<double> x(static_cast<std::size_t>(n) * batch);
    for (double& value : x) value = rng.NextGaussian();
    std::vector<double> y(x.size());
    m.ApplyBatch(x.data(), batch, y.data());
    for (int b = 0; b < batch; ++b) {
      std::vector<double> lane_x(n);
      std::vector<double> lane_y(n);
      for (int i = 0; i < n; ++i) lane_x[i] = x[i * batch + b];
      m.Apply(lane_x, &lane_y);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y[i * batch + b], lane_y[i])
            << "batch=" << batch << " lane=" << b << " row=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace ctbus::linalg
