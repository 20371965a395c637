// Tests for the dense containers and the BLAS-style kernels.
// The key invariant: the naive and scalar kernel tables agree to
// floating-point reassociation tolerance on every kernel, for every shape.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas1.hpp"
#include "linalg/blas3.hpp"
#include "linalg/diag.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "test_util.hpp"

namespace slim::linalg {
namespace {

using testutil::randomMatrix;
using testutil::randomVector;

// ---------- containers ----------

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FALSE(m.square());
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), -2.0);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, 2), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);

  const double d[] = {1.0, 2.0, 3.0};
  const Matrix dm = Matrix::diagonal({d, 3});
  EXPECT_DOUBLE_EQ(dm(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(dm(0, 1), 0.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::fromRows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, RowSpansAreContiguous) {
  Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.row(1), m.data() + 2);
  EXPECT_DOUBLE_EQ(m.rowSpan(1)[0], 3.0);
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix a = randomMatrix(4, 7, 11);
  const Matrix t = transposed(a);
  ASSERT_EQ(t.rows(), 7u);
  EXPECT_DOUBLE_EQ(maxAbsDiff(transposed(t), a), 0.0);

  Matrix t2(7, 4);
  transposeInto(a, t2);
  EXPECT_DOUBLE_EQ(maxAbsDiff(t, t2), 0.0);
}

TEST(Matrix, AllFinite) {
  Matrix m(2, 2, 1.0);
  EXPECT_TRUE(allFinite(m));
  m(0, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(allFinite(m));
  m(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(allFinite(m));
}

TEST(Vector, BasicsAndEquality) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  Vector w = v;
  EXPECT_EQ(v, w);
  w[0] = 9;
  EXPECT_NE(v, w);
  EXPECT_THROW(v.at(3), std::invalid_argument);
}

// ---------- BLAS-1 ----------

TEST(Blas1, DotAndAxpy) {
  Vector x{1, 2, 3}, y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x.span(), y.span()), 32.0);
  axpy(2.0, x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Blas1, SizeMismatchThrows) {
  Vector x(3), y(4);
  EXPECT_THROW(dot(x.span(), y.span()), std::invalid_argument);
  EXPECT_THROW(axpy(1.0, x.span(), y.span()), std::invalid_argument);
  EXPECT_THROW(copy(x.span(), y.span()), std::invalid_argument);
}

TEST(Blas1, Nrm2OverflowSafe) {
  Vector x{3e300, 4e300};
  EXPECT_NEAR(nrm2(x.span()) / 5e300, 1.0, 1e-12);
  Vector z(4, 0.0);
  EXPECT_DOUBLE_EQ(nrm2(z.span()), 0.0);
}

TEST(Blas1, AsumIamaxScal) {
  Vector x{-3, 1, 2};
  EXPECT_DOUBLE_EQ(asum(x.span()), 6.0);
  EXPECT_EQ(iamax(x.span()), 0u);
  scal(2.0, x.span());
  EXPECT_DOUBLE_EQ(x[0], -6.0);
}

TEST(Blas1, Hadamard) {
  Vector x{1, 2, 3}, y{4, 5, 6}, z(3);
  hadamard(x.span(), y.span(), z.span());
  EXPECT_DOUBLE_EQ(z[2], 18.0);
  hadamardInPlace(x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
}

// ---------- BLAS-3 naive vs scalar table agreement (property sweep) -------

const SimdKernels& naive() { return naiveKernels(); }
const SimdKernels& scalar() { return simdKernels(SimdLevel::Scalar); }

class FlavorAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlavorAgreement, Gemm) {
  const std::size_t n = GetParam();
  const Matrix a = randomMatrix(n, n + 1, 7);
  const Matrix b = randomMatrix(n + 1, n + 2, 8);
  Matrix c1(n, n + 2), c2(n, n + 2);
  gemm(naive(), a.view(), b.view(), c1.view());
  gemm(scalar(), a.view(), b.view(), c2.view());
  EXPECT_LT(maxAbsDiff(c1, c2), 1e-12 * static_cast<double>(n + 1));
}

TEST_P(FlavorAgreement, GemmNT) {
  const std::size_t n = GetParam();
  const Matrix a = randomMatrix(n, n + 4, 9);
  const Matrix b = randomMatrix(n + 1, n + 4, 10);
  Matrix c1(n, n + 1), c2(n, n + 1);
  gemmNT(naive(), a.view(), b.view(), c1.view());
  gemmNT(scalar(), a.view(), b.view(), c2.view());
  EXPECT_LT(maxAbsDiff(c1, c2), 1e-12 * static_cast<double>(n + 1));

  // gemmNT(a, b) must equal gemm(a, b^T).
  Matrix c3(n, n + 1);
  gemm(scalar(), a.view(), transposed(b).view(), c3.view());
  EXPECT_LT(maxAbsDiff(c1, c3), 1e-12 * static_cast<double>(n + 1));
}

TEST_P(FlavorAgreement, Syrk) {
  const std::size_t n = GetParam();
  const Matrix y = randomMatrix(n, n + 2, 11);
  Matrix c1(n, n), c2(n, n);
  naive().syrk(y.data(), c1.data(), n, n + 2);
  scalar().syrk(y.data(), c2.data(), n, n + 2);
  EXPECT_LT(maxAbsDiff(c1, c2), 1e-12 * static_cast<double>(n + 1));
  // Result must be exactly symmetric in the scalar table (mirrored).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(c2(i, j), c2(j, i));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlavorAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 31, 61));

TEST(Blas3, AliasAndShapeChecks) {
  Matrix a(3, 3), c(3, 3);
  EXPECT_THROW(gemm(scalar(), a.view(), a.view(), a.view()),
               std::invalid_argument);
  Matrix bad(2, 3);
  EXPECT_THROW(gemm(scalar(), a.view(), a.view(), bad.view()),
               std::invalid_argument);
  EXPECT_THROW(gemmNT(scalar(), a.view(), a.view(), a.view()),
               std::invalid_argument);
  EXPECT_THROW(gemmNT(naive(), a.view(), bad.view(), c.view()),
               std::invalid_argument);
}

// ---------- diagonal scaling ----------

TEST(Diag, SandwichMatchesExplicitProduct) {
  const std::size_t n = 5;
  const Matrix a = randomMatrix(n, n, 21);
  const Vector l = randomVector(n, 22), r = randomVector(n, 23);
  Matrix b(n, n);
  scaleSandwich(a, l.span(), r.span(), b);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(b(i, j), l[i] * a(i, j) * r[j], 1e-15);
}

TEST(Diag, ScaleColsAndRows) {
  const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
  const Vector d{2, 3};
  Matrix b(2, 2);
  scaleCols(a, d.span(), b);
  EXPECT_DOUBLE_EQ(b(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(b(1, 0), 6.0);
  scaleRows(d.span(), a, b);
  EXPECT_DOUBLE_EQ(b(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(b(1, 0), 9.0);
}

TEST(Diag, InPlaceAliasingWorks) {
  Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
  const Vector d{2, 3};
  scaleCols(a, d.span(), a);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 12.0);
}

// ---------- LU ----------

TEST(Lu, SolvesKnownSystem) {
  const Matrix a = Matrix::fromRows({{2, 1}, {1, 3}});
  const Vector b{3, 5};
  const Vector x = LuFactorization(a).solve(b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, ResidualSmallOnRandomSystems) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const std::size_t n = 20;
    const Matrix a = randomMatrix(n, n, seed);
    const Vector b = randomVector(n, seed + 100);
    const Vector x = LuFactorization(a).solve(b);
    Vector r(n);
    gemmNT(scalar(), a.view(), ConstMatrixView(x.data(), 1, n),
           MatrixView(r.data(), n, 1));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(r[i], b[i], 1e-10) << "seed " << seed << " row " << i;
  }
}

TEST(Lu, MatrixRhsAndDeterminant) {
  const Matrix a = Matrix::fromRows({{4, 0}, {0, 0.25}});
  EXPECT_NEAR(LuFactorization(a).determinant(), 1.0, 1e-14);
  const Matrix x = LuFactorization(a).solve(Matrix::identity(2));
  EXPECT_NEAR(x(0, 0), 0.25, 1e-14);
  EXPECT_NEAR(x(1, 1), 4.0, 1e-14);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;  // second row all zero
  EXPECT_THROW(LuFactorization{a}, std::invalid_argument);
}

TEST(Lu, PermutationHandled) {
  // Requires pivoting: zero on the leading diagonal.
  const Matrix a = Matrix::fromRows({{0, 1}, {1, 0}});
  const Vector b{2, 3};
  const Vector x = LuFactorization(a).solve(b);
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(LuFactorization(a).determinant(), -1.0, 1e-14);
}

}  // namespace
}  // namespace slim::linalg
