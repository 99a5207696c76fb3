#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "tests/matrix_builders.h"

namespace ctbus::linalg {
namespace {

using Triplet = SymmetricSparseMatrix::Triplet;

TEST(SparseMatrixTest, EmptyMatrix) {
  const SymmetricSparseMatrix m(0, {});
  EXPECT_EQ(m.dim(), 0);
  EXPECT_EQ(m.num_entries(), 0);
}

TEST(SparseMatrixTest, StoresSymmetrically) {
  const SymmetricSparseMatrix m(4, {{0, 2, 3.5}});
  EXPECT_DOUBLE_EQ(m.At(0, 2), 3.5);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 3.5);
  EXPECT_TRUE(m.Contains(2, 0));
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, AtMissingIsZero) {
  const SymmetricSparseMatrix m(3, {{0, 2, 1.0}});
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_FALSE(m.Contains(0, 1));
}

TEST(SparseMatrixTest, RowDegreeCounts) {
  const SymmetricSparseMatrix m(4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}});
  EXPECT_EQ(m.RowDegree(0), 3);
  EXPECT_EQ(m.RowDegree(1), 1);
  EXPECT_EQ(m.Row(0).size(), 3);
}

TEST(SparseMatrixTest, RowsAreSortedWhateverTheInputOrder) {
  // The same entry set listed in every order, and in either orientation,
  // gives the same rows: ascending column order, bit-identical values.
  const auto by_pair = [](const Triplet& a, const Triplet& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  };
  std::vector<Triplet> entries = {
      {3, 0, 0.5}, {1, 4, -1.25}, {0, 1, 2.0}, {4, 0, 0.75}, {2, 3, 1.5}};
  std::sort(entries.begin(), entries.end(), by_pair);
  const SymmetricSparseMatrix reference(5, entries);
  for (int u = 0; u < reference.dim(); ++u) {
    const auto row = reference.Row(u);
    for (int j = 1; j < row.size(); ++j) EXPECT_LT(row[j - 1].col, row[j].col);
  }
  int permutations = 0;
  do {
    std::vector<Triplet> flipped = entries;
    for (std::size_t i = 0; i < flipped.size(); i += 2) {
      std::swap(flipped[i].u, flipped[i].v);
    }
    for (const auto& list : {entries, flipped}) {
      const SymmetricSparseMatrix m(5, list);
      for (int u = 0; u < m.dim(); ++u) {
        ASSERT_EQ(m.RowDegree(u), reference.RowDegree(u));
        for (int j = 0; j < m.RowDegree(u); ++j) {
          EXPECT_EQ(m.Row(u)[j].col, reference.Row(u)[j].col);
          EXPECT_EQ(m.Row(u)[j].value, reference.Row(u)[j].value);
        }
      }
    }
    ++permutations;
  } while (std::next_permutation(entries.begin(), entries.end(), by_pair));
  EXPECT_EQ(permutations, 120);
}

TEST(SparseMatrixTest, ApplyMatchesManualProduct) {
  const SymmetricSparseMatrix m(3, {{0, 1, 2.0}, {1, 2, -1.0}});
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
  const SymmetricSparseMatrix sparse = testutil::RandomGraph(
      n, 10.0, &rng, [](Rng* r) { return r->NextDouble(-2.0, 2.0); });
  const DenseMatrix dense = DenseMatrix::FromSparse(sparse);
  std::vector<double> x(n);
  for (double& val : x) val = rng.NextGaussian();
  std::vector<double> ys(n), yd(n);
  sparse.Apply(x, &ys);
  dense.Apply(x, &yd);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrixTest, RejectsDiagonalEntriesInAnyBuildMode) {
  // A diagonal entry would break the zero-diagonal invariant and the
  // store-twice entry count. The check throws in every build mode, so this
  // test passes under -DNDEBUG too.
  EXPECT_THROW(SymmetricSparseMatrix(4, {{2, 2, 1.0}}), std::invalid_argument);
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 1, 1.0}, {3, 3, 1.0}}),
               std::invalid_argument);
}

TEST(SparseMatrixTest, RejectsOutOfRangeIndices) {
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 4, 1.0}}), std::out_of_range);
  EXPECT_THROW(SymmetricSparseMatrix(4, {{-1, 2, 1.0}}), std::out_of_range);
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 1, 2.0}, {4, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(SymmetricSparseMatrix(0, {{0, 1, 1.0}}), std::out_of_range);
  EXPECT_THROW(SymmetricSparseMatrix(-1, {}), std::invalid_argument);
}

TEST(SparseMatrixTest, RejectsDuplicatePairsInEitherOrientation) {
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 1, 1.0}, {0, 1, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 1, 1.0}, {2, 3, 1.0}, {1, 0, 2.0}}),
               std::invalid_argument);
  try {
    SymmetricSparseMatrix(5, {{3, 4, 1.0}, {1, 2, 1.0}, {4, 3, 1.0}});
    FAIL() << "duplicate pair accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("(3, 4)"), std::string::npos)
        << error.what();
  }
}

TEST(SparseMatrixTest, RejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 1, nan}}), std::invalid_argument);
  EXPECT_THROW(SymmetricSparseMatrix(4, {{0, 1, 1.0}, {1, 2, inf}}),
               std::invalid_argument);
  EXPECT_THROW(SymmetricSparseMatrix(4, {{2, 3, -inf}}), std::invalid_argument);
}

TEST(SparseMatrixTest, DenseFromSparseRoundTrip) {
  const SymmetricSparseMatrix m(3, {{0, 1, 5.0}});
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
  const SymmetricSparseMatrix m = testutil::RandomGraph(
      n, 4.5, &rng, [](Rng* r) { return r->NextDouble(-2.0, 2.0); });
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
