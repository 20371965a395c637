// Tests for the matrix-exponential pipeline — the mathematical core of the
// paper.  Both reconstruction paths (Eq. 9 gemm, Eq. 10 syrk) on the naive
// and scalar kernel tables are validated against the independent Pade
// oracle and against CTMC invariants (stochasticity, semigroup property,
// equilibrium); on every table the transposed output layout is the
// transpose of P bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "expm/codon_eigen_system.hpp"
#include "expm/pade.hpp"
#include "linalg/blas3.hpp"
#include "linalg/simd.hpp"
#include "model/branch_site.hpp"
#include "model/codon_model.hpp"
#include "test_util.hpp"

namespace slim::expm {
namespace {

using linalg::Matrix;
using linalg::SimdKernels;
using linalg::Vector;
using testutil::randomFrequencies;

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

const SimdKernels& scalar() {
  return linalg::simdKernels(linalg::SimdLevel::Scalar);
}

struct CodonSetup {
  std::vector<double> pi;
  Matrix s;
  Matrix q;  // unscaled rate matrix (diagonal set)
};

CodonSetup makeCodonSetup(double kappa, double omega, unsigned seed) {
  const int n = gc().numSense();
  CodonSetup cs;
  cs.pi = randomFrequencies(n, seed);
  cs.s = Matrix(n, n);
  model::buildExchangeability(gc(), kappa, omega, cs.s);
  cs.q = Matrix(n, n);
  model::buildRateMatrix(cs.s, cs.pi, cs.q);
  return cs;
}

// ---------- Pade oracle sanity ----------

TEST(Pade, ExpOfZeroIsIdentity) {
  const Matrix e = expmPade(Matrix(4, 4, 0.0));
  EXPECT_LT(maxAbsDiff(e, Matrix::identity(4)), 1e-14);
}

TEST(Pade, ExpOfDiagonal) {
  const double d[] = {1.0, -2.0, 0.5};
  const Matrix e = expmPade(Matrix::diagonal({d, 3}));
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e(2, 2), std::exp(0.5), 1e-12);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-13);
}

TEST(Pade, KnownNilpotent) {
  // A = [[0,1],[0,0]] -> e^A = [[1,1],[0,1]].
  const Matrix e = expmPade(Matrix::fromRows({{0, 1}, {0, 0}}));
  EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-14);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-14);
}

TEST(Pade, LargeNormTriggersScaling) {
  // 2x2 rotation generator scaled up: e^{tJ} = rotation by t.
  const double t = 20.0;
  const Matrix e = expmPade(Matrix::fromRows({{0, -t}, {t, 0}}));
  EXPECT_NEAR(e(0, 0), std::cos(t), 1e-9);
  EXPECT_NEAR(e(1, 0), std::sin(t), 1e-9);
}

// ---------- eigendecomposition pipeline vs the oracle ----------

class ExpmPath
    : public ::testing::TestWithParam<
          std::tuple<ReconstructionPath, const SimdKernels*, double>> {};

TEST_P(ExpmPath, MatchesPadeOracle) {
  const auto [path, kern, t] = GetParam();
  const auto cs = makeCodonSetup(2.0, 0.5, 11);
  const CodonEigenSystem es(cs.s, cs.pi);

  Matrix qt = cs.q;
  for (std::size_t k = 0; k < qt.size(); ++k) qt.data()[k] *= t;
  const Matrix ref = expmPade(qt);

  ExpmWorkspace ws;
  Matrix p(es.n(), es.n());
  es.transitionMatrix(t, path, *kern, ws, p);
  EXPECT_LT(maxAbsDiff(p, ref), 1e-10)
      << reconstructionPathName(path) << " table=" << kern->name
      << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    PathsFlavorsTimes, ExpmPath,
    ::testing::Combine(::testing::Values(ReconstructionPath::Gemm,
                                         ReconstructionPath::Syrk),
                       ::testing::Values(&linalg::naiveKernels(), &scalar()),
                       ::testing::Values(0.01, 0.1, 0.5, 2.0)));

// ---------- the stored layout ----------

// P^T and (dP/dt)^T straight from the kernel are the transposes of P and
// dP/dt bit for bit, on both reconstruction paths and every table this
// build can run.
TEST(CodonEigenSystem, TransposedLayoutIsTheTransposeOfP) {
  std::vector<const SimdKernels*> tables{&linalg::naiveKernels(), &scalar()};
  for (auto level : {linalg::SimdLevel::Avx2, linalg::SimdLevel::Avx512})
    if (linalg::simdLevelAvailable(level))
      tables.push_back(&linalg::simdKernels(level));
  const auto cs = makeCodonSetup(2.5, 0.066, 13);
  const CodonEigenSystem es(cs.s, cs.pi);
  const auto bits = [](const Matrix& got, const Matrix& want) {
    return std::memcmp(got.data(), want.data(),
                       want.size() * sizeof(double)) == 0;
  };
  for (const SimdKernels* kern : tables) {
    ExpmWorkspace ws;
    Matrix p(es.n(), es.n()), pT(es.n(), es.n());
    for (double t : {1e-4, 0.05, 0.7, 4.0}) {
      for (auto path : {ReconstructionPath::Syrk, ReconstructionPath::Gemm}) {
        es.transitionMatrix(t, path, *kern, ws, p);
        es.transitionMatrix(t, path, *kern, ws, pT,
                            linalg::OutputLayout::Transposed);
        EXPECT_TRUE(bits(pT, linalg::transposed(p)))
            << kern->name << " " << reconstructionPathName(path)
            << " t=" << t;
      }
      es.derivativeMatrix(t, *kern, ws, p);
      es.derivativeMatrix(t, *kern, ws, pT, linalg::OutputLayout::Transposed);
      EXPECT_TRUE(bits(pT, linalg::transposed(p)))
          << kern->name << " dP/dt t=" << t;
    }
  }
}

// ---------- CTMC invariants ----------

TEST(CodonEigenSystem, TransitionAtZeroIsIdentity) {
  const auto cs = makeCodonSetup(2.0, 0.3, 5);
  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  Matrix p(es.n(), es.n());
  es.transitionMatrix(0.0, ReconstructionPath::Syrk, scalar(), ws, p);
  EXPECT_LT(maxAbsDiff(p, Matrix::identity(es.n())), 1e-11);
}

TEST(CodonEigenSystem, RowsAreStochastic) {
  const auto cs = makeCodonSetup(3.0, 1.5, 6);
  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  Matrix p(es.n(), es.n());
  for (double t : {0.05, 0.3, 1.0, 5.0}) {
    es.transitionMatrix(t, ReconstructionPath::Syrk, scalar(), ws, p);
    for (std::size_t i = 0; i < p.rows(); ++i) {
      double rowSum = 0;
      for (std::size_t j = 0; j < p.cols(); ++j) {
        EXPECT_GE(p(i, j), 0.0);
        rowSum += p(i, j);
      }
      EXPECT_NEAR(rowSum, 1.0, 1e-10) << "t=" << t << " row " << i;
    }
  }
}

TEST(CodonEigenSystem, SemigroupProperty) {
  // P(t+s) = P(t) P(s).
  const auto cs = makeCodonSetup(2.5, 0.2, 7);
  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  const std::size_t n = es.n();
  Matrix pt(n, n), ps(n, n), pts(n, n), prod(n, n);
  es.transitionMatrix(0.2, ReconstructionPath::Syrk, scalar(), ws, pt);
  es.transitionMatrix(0.5, ReconstructionPath::Syrk, scalar(), ws, ps);
  es.transitionMatrix(0.7, ReconstructionPath::Syrk, scalar(), ws, pts);
  linalg::gemm(scalar(), pt.view(), ps.view(), prod.view());
  EXPECT_LT(maxAbsDiff(prod, pts), 1e-11);
}

TEST(CodonEigenSystem, EquilibriumIsStationary) {
  // pi^T P(t) = pi^T.
  const auto cs = makeCodonSetup(2.0, 0.8, 8);
  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  Matrix p(es.n(), es.n());
  es.transitionMatrix(0.7, ReconstructionPath::Syrk, scalar(), ws, p);
  Vector piV(es.n()), out(es.n());
  for (std::size_t i = 0; i < es.n(); ++i) piV[i] = cs.pi[i];
  // The row vector pi^T times P, as a 1 x n panel product.
  linalg::gemm(scalar(), linalg::ConstMatrixView(piV.data(), 1, es.n()),
               p.view(), linalg::MatrixView(out.data(), 1, es.n()));
  EXPECT_LT(maxAbsDiff(out, piV), 1e-11);
}

TEST(CodonEigenSystem, LongTimeLimitIsEquilibrium) {
  // Every row of P(t -> inf) converges to pi.
  const auto cs = makeCodonSetup(2.0, 0.5, 9);
  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  Matrix p(es.n(), es.n());
  es.transitionMatrix(500.0, ReconstructionPath::Syrk, scalar(), ws, p);
  // Tolerance reflects eigenvector roundoff amplified by Pi^{-1/2} at the
  // rank-one limit; the Pade cross-check above is tighter at realistic t.
  for (std::size_t i = 0; i < es.n(); ++i)
    for (std::size_t j = 0; j < es.n(); ++j)
      EXPECT_NEAR(p(i, j), cs.pi[j], 5e-7);
}

TEST(CodonEigenSystem, EigenvaluesNonPositiveWithOneZero) {
  const auto cs = makeCodonSetup(2.0, 0.5, 10);
  const CodonEigenSystem es(cs.s, cs.pi);
  const auto& lambda = es.eigenvalues();
  for (std::size_t i = 0; i < lambda.size(); ++i)
    EXPECT_LE(lambda[i], 1e-10);
  EXPECT_NEAR(lambda[lambda.size() - 1], 0.0, 1e-10);
}

TEST(CodonEigenSystem, DetailedBalanceOfP) {
  // Reversibility survives exponentiation: pi_i P_ij(t) == pi_j P_ji(t).
  const auto cs = makeCodonSetup(1.7, 0.4, 12);
  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  Matrix p(es.n(), es.n());
  es.transitionMatrix(0.4, ReconstructionPath::Syrk, scalar(), ws, p);
  for (std::size_t i = 0; i < es.n(); ++i)
    for (std::size_t j = i + 1; j < es.n(); ++j)
      EXPECT_NEAR(cs.pi[i] * p(i, j), cs.pi[j] * p(j, i), 1e-12);
}

// ---------- input validation ----------

TEST(CodonEigenSystem, RejectsBadInput) {
  const auto cs = makeCodonSetup(2.0, 0.5, 17);
  std::vector<double> badPi(61, 1.0 / 61.0);
  badPi[0] = 0.0;
  EXPECT_THROW(CodonEigenSystem(cs.s, badPi), std::invalid_argument);
  EXPECT_THROW(CodonEigenSystem(cs.s, std::vector<double>(60, 1.0 / 60)),
               std::invalid_argument);

  const CodonEigenSystem es(cs.s, cs.pi);
  ExpmWorkspace ws;
  Matrix p(61, 61);
  EXPECT_THROW(
      es.transitionMatrix(-0.1, ReconstructionPath::Syrk, scalar(), ws, p),
      std::invalid_argument);
  Matrix bad(60, 60);
  EXPECT_THROW(
      es.transitionMatrix(0.1, ReconstructionPath::Syrk, scalar(), ws, bad),
      std::invalid_argument);
}

TEST(CodonEigenSystem, WorksForNon61Dimensions) {
  // Vertebrate mitochondrial code: 60 sense codons.
  const auto& mito = bio::GeneticCode::vertebrateMitochondrial();
  const int n = mito.numSense();
  const auto pi = randomFrequencies(n, 18);
  Matrix s(n, n);
  model::buildExchangeability(mito, 2.0, 0.5, s);
  const CodonEigenSystem es(s, pi);
  ExpmWorkspace ws;
  Matrix p(n, n);
  es.transitionMatrix(0.2, ReconstructionPath::Syrk, scalar(), ws, p);
  for (int i = 0; i < n; ++i) {
    double rowSum = 0;
    for (int j = 0; j < n; ++j) rowSum += p(i, j);
    EXPECT_NEAR(rowSum, 1.0, 1e-10);
  }
}

}  // namespace
}  // namespace slim::expm
