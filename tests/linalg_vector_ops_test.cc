#include "linalg/vector_ops.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/rng.h"

namespace ctbus::linalg {
namespace {

TEST(VectorOpsTest, DotBasic) {
  EXPECT_DOUBLE_EQ(Dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorOpsTest, DotEmpty) { EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0); }

TEST(VectorOpsTest, DotOrthogonal) {
  EXPECT_DOUBLE_EQ(Dot({1.0, 0.0}, {0.0, 5.0}), 0.0);
}

TEST(VectorOpsTest, Norm2Pythagorean) {
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
}

TEST(VectorOpsTest, AxpyAccumulates) {
  std::vector<double> y = {1.0, 1.0};
  Axpy(2.0, {3.0, -1.0}, &y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(VectorOpsTest, ScaleInPlace) {
  std::vector<double> x = {2.0, -4.0};
  Scale(-0.5, &x);
  EXPECT_DOUBLE_EQ(x[0], -1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(VectorOpsTest, NormalizeReturnsNormAndUnitizes) {
  std::vector<double> x = {3.0, 4.0};
  const double norm = Normalize(&x);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(Norm2(x), 1.0, 1e-15);
}

TEST(VectorOpsTest, NormalizeZeroVectorIsNoop) {
  std::vector<double> x = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(Normalize(&x), 0.0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(VectorOpsTest, FillGaussianHasUnitVarianceEntries) {
  Rng rng(17);
  std::vector<double> x(50000);
  FillGaussian(&rng, &x);
  EXPECT_NEAR(Dot(x, x) / static_cast<double>(x.size()), 1.0, 0.03);
}

}  // namespace
}  // namespace ctbus::linalg
