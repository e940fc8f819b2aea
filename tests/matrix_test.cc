#include "nn/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace targad {
namespace nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(-2.0, 2.0);
  return m;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromDataVector) {
  Matrix m(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 4.0);
}

TEST(MatrixDeathTest, SizeMismatchAborts) {
  EXPECT_DEATH({ Matrix m(2, 2, {1.0, 2.0, 3.0}); }, "Matrix data size");
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154.0);
}

TEST(MatrixTest, MatMulIdentity) {
  Matrix a = RandomMatrix(4, 4, 1);
  Matrix id(4, 4);
  for (size_t i = 0; i < 4; ++i) id.At(i, i) = 1.0;
  Matrix c = a.MatMul(id);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(c.data()[i], a.data()[i], 1e-12);
  }
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a = RandomMatrix(3, 5, 2);
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 3u);
  Matrix tt = t.Transpose();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(tt.data()[i], a.data()[i]);
}

// Property: the fused products agree with explicit transpose+matmul.
class FusedMatMulTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(FusedMatMulTest, TransposeMatMulMatchesExplicit) {
  const auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(k, m, 3);  // Will be transposed: (m x k).
  Matrix b = RandomMatrix(k, n, 4);
  Matrix fused = a.TransposeMatMul(b);
  Matrix explicit_result = a.Transpose().MatMul(b);
  ASSERT_TRUE(fused.SameShape(explicit_result));
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.data()[i], explicit_result.data()[i], 1e-10);
  }
}

TEST_P(FusedMatMulTest, MatMulTransposeMatchesExplicit) {
  const auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(m, k, 5);
  Matrix b = RandomMatrix(n, k, 6);  // Will be transposed: (k x n).
  Matrix fused = a.MatMulTranspose(b);
  Matrix explicit_result = a.MatMul(b.Transpose());
  ASSERT_TRUE(fused.SameShape(explicit_result));
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.data()[i], explicit_result.data()[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedMatMulTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(1, 16, 3), std::make_tuple(13, 7, 2)));

TEST(MatrixDeathTest, MatMulShapeMismatchAborts) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_DEATH({ (void)a.MatMul(b); }, "MatMul shape mismatch");
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  EXPECT_DOUBLE_EQ(a.Add(b).At(0, 1), 22.0);
  Matrix scaled = a;
  scaled.MulInPlace(3.0);
  EXPECT_DOUBLE_EQ(scaled.At(0, 0), 3.0);
  Matrix h = a;
  h.HadamardInPlace(b);
  EXPECT_DOUBLE_EQ(h.At(0, 2), 90.0);
}

TEST(MatrixTest, RowSquaredDistance) {
  Matrix a(1, 2, {0.0, 0.0});
  Matrix b(1, 2, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(a.RowSquaredDistance(0, b, 0), 25.0);
}

TEST(MatrixTest, SelectRows) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix sel = a.SelectRows({2, 0});
  ASSERT_EQ(sel.rows(), 2u);
  EXPECT_DOUBLE_EQ(sel.At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sel.At(1, 1), 2.0);
}

TEST(MatrixTest, AppendRows) {
  Matrix a(1, 2, {1, 2});
  Matrix b(2, 2, {3, 4, 5, 6});
  a.AppendRows(b);
  ASSERT_EQ(a.rows(), 3u);
  EXPECT_DOUBLE_EQ(a.At(2, 1), 6.0);
}

TEST(MatrixTest, AppendRowsToEmpty) {
  Matrix a;
  Matrix b(2, 3, 1.0);
  a.AppendRows(b);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
}

TEST(MatrixTest, RowBlockViewsShareStorage) {
  Matrix a(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  RowBlock mid = a.RowBlock(1, 2);
  EXPECT_EQ(mid.rows(), 2u);
  EXPECT_EQ(mid.cols(), 2u);
  EXPECT_DOUBLE_EQ(mid.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(mid.At(1, 1), 6.0);
  // Zero-copy: the view aliases the matrix storage directly.
  EXPECT_EQ(mid.data(), a.RowPtr(1));
  EXPECT_EQ(mid.RowPtr(1), a.RowPtr(2));
}

TEST(MatrixTest, RowBlockToMatrixMaterializesCopy) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix tail = a.RowBlock(1, 2).ToMatrix();
  ASSERT_EQ(tail.rows(), 2u);
  EXPECT_DOUBLE_EQ(tail.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(tail.At(1, 1), 6.0);
  a.At(1, 0) = 99.0;  // Mutating the source must not touch the copy.
  EXPECT_DOUBLE_EQ(tail.At(0, 0), 3.0);
}

TEST(MatrixTest, RowBlockImplicitFromWholeMatrix) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  RowBlock view = a;  // Implicit whole-matrix view.
  EXPECT_EQ(view.rows(), a.rows());
  EXPECT_EQ(view.cols(), a.cols());
  EXPECT_EQ(view.data(), a.data().data());
  RowBlock empty_range = a.RowBlock(2, 0);
  EXPECT_TRUE(empty_range.empty());
  EXPECT_EQ(empty_range.rows(), 0u);
}

TEST(MatrixTest, MapAndRowOps) {
  Matrix a(1, 3, {-1.0, 0.0, 2.0});
  Matrix sq = a;
  sq.MapInPlace([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(sq.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(sq.At(0, 2), 4.0);
  a.SetRow(0, {7.0, 8.0, 9.0});
  EXPECT_EQ(a.Row(0), (std::vector<double>{7.0, 8.0, 9.0}));
}

}  // namespace
}  // namespace nn
}  // namespace targad
