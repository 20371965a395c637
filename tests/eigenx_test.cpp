// Tests for the symmetric eigensolvers: known spectra, residual/orthogonality
// properties over random matrices, cross-validation of the QL solver
// against the independently-implemented Jacobi solver, and a bitwise oracle
// that pins the row-order solver to the column-order EISPACK code.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bio/genetic_code.hpp"
#include "eigenx/sym_eigen.hpp"
#include "model/codon_model.hpp"
#include "sim/evolver.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace slim::eigenx {
namespace {

using linalg::Matrix;
using testutil::randomSymmetric;

TEST(SymEigen, DiagonalMatrix) {
  const double d[] = {3.0, -1.0, 2.0};
  const auto r = symEigen(Matrix::diagonal({d, 3}));
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], -1.0, 1e-14);
  EXPECT_NEAR(r.values[1], 2.0, 1e-14);
  EXPECT_NEAR(r.values[2], 3.0, 1e-14);
}

TEST(SymEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto r = symEigen(Matrix::fromRows({{2, 1}, {1, 2}}));
  EXPECT_NEAR(r.values[0], 1.0, 1e-14);
  EXPECT_NEAR(r.values[1], 3.0, 1e-14);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(r.vectors(0, 1)), std::sqrt(0.5), 1e-12);
}

TEST(SymEigen, OneByOne) {
  const auto r = symEigen(Matrix::fromRows({{7.0}}));
  EXPECT_NEAR(r.values[0], 7.0, 1e-15);
  EXPECT_NEAR(std::fabs(r.vectors(0, 0)), 1.0, 1e-15);
}

TEST(SymEigen, RejectsNonSquare) {
  EXPECT_THROW(symEigen(Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(symEigen(Matrix(0, 0)), std::invalid_argument);
}

TEST(SymEigen, UsesLowerTriangleOnly) {
  // Upper triangle deliberately poisoned; contract is uplo='L'.
  Matrix a = Matrix::fromRows({{2, 999}, {1, 2}});
  const auto r = symEigen(a);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(SymEigen, TraceAndValuesSumAgree) {
  const Matrix a = randomSymmetric(12, 42);
  const auto r = symEigen(a);
  double trace = 0, sum = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    trace += a(i, i);
    sum += r.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-10);
}

class SymEigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymEigenProperty, ResidualAndOrthogonality) {
  const std::size_t n = GetParam();
  for (unsigned seed : {1u, 17u, 33u}) {
    const Matrix a = randomSymmetric(n, seed);
    const auto r = symEigen(a);
    EXPECT_LT(eigenResidual(a, r), 1e-11 * static_cast<double>(n))
        << "n=" << n << " seed=" << seed;
    EXPECT_LT(orthogonalityError(r.vectors), 1e-12 * static_cast<double>(n));
    // Ascending order.
    EXPECT_TRUE(std::is_sorted(r.values.begin(), r.values.end()));
  }
}

TEST_P(SymEigenProperty, JacobiAgreesWithQl) {
  const std::size_t n = GetParam();
  const Matrix a = randomSymmetric(n, 7);
  const auto ql = symEigen(a);
  const auto jac = symEigenJacobi(a);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(ql.values[i], jac.values[i], 1e-9 * static_cast<double>(n))
        << "eigenvalue " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigenProperty,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 61));

TEST(SymEigenJacobi, ResidualOnCodonSizedMatrix) {
  const Matrix a = randomSymmetric(61, 99);
  const auto r = symEigenJacobi(a);
  EXPECT_LT(eigenResidual(a, r), 1e-9);
  EXPECT_LT(orthogonalityError(r.vectors), 1e-10);
}

TEST(SymEigen, RepeatedEigenvalues) {
  // Identity: eigenvalue 1 with multiplicity n; vectors stay orthonormal.
  const auto r = symEigen(Matrix::identity(6));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(r.values[i], 1.0, 1e-14);
  EXPECT_LT(orthogonalityError(r.vectors), 1e-13);
}

TEST(SymEigen, RankOneMatrix) {
  // v v^T with v = ones: eigenvalues {0,...,0, n}.
  const std::size_t n = 5;
  Matrix a(n, n, 1.0);
  const auto r = symEigen(a);
  for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_NEAR(r.values[i], 0.0, 1e-12);
  EXPECT_NEAR(r.values[n - 1], static_cast<double>(n), 1e-12);
}

TEST(SymEigen, NegativeDefinite) {
  Matrix a = Matrix::fromRows({{-4, 1}, {1, -4}});
  const auto r = symEigen(a);
  EXPECT_NEAR(r.values[0], -5.0, 1e-13);
  EXPECT_NEAR(r.values[1], -3.0, 1e-13);
}

TEST(SymEigen, ScalingInvariance) {
  // eig(c*A) == c*eig(A) for c > 0.
  const Matrix a = randomSymmetric(9, 3);
  Matrix b = a;
  for (std::size_t k = 0; k < b.size(); ++k) b.data()[k] *= 2.5;
  const auto ra = symEigen(a);
  const auto rb = symEigen(b);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_NEAR(rb.values[i], 2.5 * ra.values[i], 1e-11);
}


// ---------- bitwise oracle: the column-order EISPACK code ----------

// symEigen's tred2/tql2 before they moved to the row-order working matrix
// W = V^T, kept verbatim as the reference: the eigenvectors accumulate in
// the columns of v, and every inner loop over k walks a column.
void columnOrderTred2(Matrix& v, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = v.rows();

  for (std::size_t j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) v(k, j) -= f * e[k] + g * d[k];
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (std::size_t k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal matrix (d, e), accumulating
// rotations into v.  EISPACK tql2 / JAMA formulation; eigenvalues are sorted
// ascending together with their vectors at the end.
void columnOrderTql2(Matrix& v, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = v.rows();
  constexpr int kMaxIter = 60;

  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();

  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (m < n && std::fabs(e[m]) > eps * tst1) ++m;
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > kMaxIter)
          throw std::runtime_error("symEigen: QL iteration failed to converge");
        // Implicit shift (Wilkinson).
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL sweep from m-1 down to l.
        p = d[m];
        double c = 1.0, c2 = c, c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (std::size_t k = 0; k < n; ++k) {
            h = v(k, i + 1);
            v(k, i + 1) = s * v(k, i) + c * h;
            v(k, i) = c * v(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Sort ascending, carrying vectors along (selection sort: n is small).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    double p = d[i];
    for (std::size_t j = i + 1; j < n; ++j)
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      for (std::size_t j = 0; j < n; ++j) std::swap(v(j, i), v(j, k));
    }
  }
}


SymEigenResult columnOrderSymEigen(const Matrix& a) {
  const std::size_t n = a.rows();
  SymEigenResult r;
  r.vectors = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) r.vectors(i, j) = r.vectors(j, i);
  std::vector<double> d(n), e(n);
  columnOrderTred2(r.vectors, d, e);
  columnOrderTql2(r.vectors, d, e);
  r.values = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) r.values[i] = d[i];
  return r;
}

// A = Pi^{1/2} S Pi^{1/2} with the generator diagonal, the matrix
// expm::CodonEigenSystem decomposes.
Matrix codonMatrix(double kappa, double omega, const std::vector<double>& pi) {
  const auto& gc = bio::GeneticCode::universal();
  const std::size_t n = static_cast<std::size_t>(gc.numSense());
  Matrix s(n, n);
  model::buildExchangeability(gc, kappa, omega, s);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double rowRate = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = std::sqrt(pi[i]) * s(i, j) * std::sqrt(pi[j]);
      rowRate += s(i, j) * pi[j];
    }
    a(i, i) = -rowRate;
  }
  return a;
}

// Cuts every coupling of state k, so tred2 meets an all-zero row.
Matrix isolate(Matrix a, std::size_t k) {
  for (std::size_t j = 0; j < a.rows(); ++j)
    if (j != k) a(k, j) = a(j, k) = 0.0;
  return a;
}

// The oracle's inputs: codon matrices across the (kappa, omega) range the
// fits visit, under uniform and random frequencies; the random matrices of
// SymEigenProperty; inputs that take tred2's scale == 0 branch; rank one.
std::vector<std::pair<std::string, Matrix>> oracleInputs() {
  std::vector<std::pair<std::string, Matrix>> out;
  const std::size_t n = 61;
  sim::Rng rng(2024);
  const std::vector<std::vector<double>> pis = {
      std::vector<double>(n, 1.0 / static_cast<double>(n)),
      sim::randomCodonFrequencies(61, 5, rng)};
  constexpr std::pair<double, double> kKappaOmega[] = {
      {2.0, 0.4}, {2.5, 0.066}, {2.5, 1.0}, {2.5, 10950.0}};
  for (std::size_t p = 0; p < pis.size(); ++p)
    for (auto [kappa, omega] : kKappaOmega)
      out.emplace_back("codon kappa=" + std::to_string(kappa) +
                           " omega=" + std::to_string(omega) +
                           (p == 0 ? " uniform pi" : " random pi"),
                       codonMatrix(kappa, omega, pis[p]));
  for (std::size_t size : {2, 3, 5, 8, 13, 21, 34, 61})
    for (unsigned seed : {1u, 7u, 17u, 33u})
      out.emplace_back("random n=" + std::to_string(size) +
                           " seed=" + std::to_string(seed),
                       randomSymmetric(size, seed));

  const double diag[] = {3.0, -1.0, 2.0, 0.5, -7.25};
  out.emplace_back("diagonal", Matrix::diagonal({diag, 5}));
  out.emplace_back("identity", Matrix::identity(9));
  Matrix blocks = randomSymmetric(13, 5);
  for (std::size_t i = 0; i < 13; ++i)
    for (std::size_t j = 0; j < 13; ++j)
      if ((i < 6) != (j < 6)) blocks(i, j) = 0.0;
  out.emplace_back("block-diagonal, state 12 isolated", isolate(blocks, 12));
  out.emplace_back("codon, states 0, 30 and 60 isolated",
                   isolate(isolate(isolate(codonMatrix(2.5, 0.4, pis[1]), 0),
                                   30),
                           60));

  out.emplace_back("rank one, ones", Matrix(61, 61, 1.0));
  const auto v = testutil::randomVector(61, 3);
  Matrix outer(61, 61);
  for (std::size_t i = 0; i < 61; ++i)
    for (std::size_t j = 0; j < 61; ++j) outer(i, j) = v[i] * v[j];
  out.emplace_back("rank one, v v^T", outer);
  return out;
}

TEST(SymEigenOracle, RowOrderEqualsColumnOrderBitForBit) {
  std::size_t compared = 0, differing = 0;
  for (const auto& [name, a] : oracleInputs()) {
    const SymEigenResult got = symEigen(a);
    const SymEigenResult want = columnOrderSymEigen(a);
    ASSERT_EQ(got.values.size(), want.values.size()) << name;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < want.values.size(); ++i)
      bad += std::bit_cast<std::uint64_t>(got.values[i]) !=
             std::bit_cast<std::uint64_t>(want.values[i]);
    for (std::size_t k = 0; k < want.vectors.size(); ++k)
      bad += std::bit_cast<std::uint64_t>(got.vectors.data()[k]) !=
             std::bit_cast<std::uint64_t>(want.vectors.data()[k]);
    compared += want.values.size() + want.vectors.size();
    differing += bad;
#ifndef __FMA__
    EXPECT_EQ(bad, 0u) << name;
#endif
  }
#ifdef __FMA__
  GTEST_SKIP() << "built with FMA contraction, which fuses a * b + c "
                  "differently in the row-order loops than in the column-"
                  "order ones: "
               << differing << " of " << compared
               << " eigenvalue and eigenvector elements differ";
#else
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(differing, 0u);
#endif
}

}  // namespace
}  // namespace slim::eigenx
