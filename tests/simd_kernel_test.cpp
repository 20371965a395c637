// Tests for the kernel tables (linalg/simd.hpp).
//
// The contract under test:
//   * the fused-sandwich entries of every table are bit-identical to their
//     table's unfused product + scaleSandwich + clamp sequence, in both
//     layouts, with exact zeros and negative products among the inputs;
//   * the naive table and every compiled-and-supported SIMD level agree
//     with scalar to tight elementwise tolerances on the kernels, and every
//     SIMD level agrees to <= 1e-10 *relative* on the log-likelihood;
//   * each level is bit-identical to itself across thread counts and block
//     sizes (EXPECT_EQ on doubles), because kernel results are invariant
//     under any row partition of a panel;
//   * the vector tables' gemm gives every element the bits of the k-ordered
//     FMA chain from +0.0, so avx2 and avx512 agree bit for bit;
//   * on every table a sandwich entry's Transposed output is the transpose
//     of its Plain output bit for bit, and a kernel that gets P^T by
//     swapping l and r fails that check;
//   * every table's product of a one-hot row is exactly the selected row of
//     the other operand, and a 1-row call equals that row inside a panel —
//     what the likelihood sweeps' leaf row gathers rest on;
//   * resolveKernels is the one kernel choice: the naive table for the
//     codeml flavor whatever `simd =` says, otherwise the table of the level
//     `simd =` resolves to, and the transitional `backend = Reference`
//     option runs and reports the scalar table.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "expm/codon_eigen_system.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "linalg/blas3.hpp"
#include "linalg/diag.hpp"
#include "linalg/simd.hpp"
#include "model/codon_model.hpp"
#include "seqio/alignment.hpp"
#include "sim/datasets.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace slim::linalg {
namespace {

std::vector<SimdLevel> availableLevels() {
  std::vector<SimdLevel> out{SimdLevel::Scalar};
  if (simdLevelAvailable(SimdLevel::Avx2)) out.push_back(SimdLevel::Avx2);
  if (simdLevelAvailable(SimdLevel::Avx512)) out.push_back(SimdLevel::Avx512);
  return out;
}

// The naive table plus every runnable SIMD level's table.
std::vector<const SimdKernels*> availableTables() {
  std::vector<const SimdKernels*> out{&naiveKernels()};
  for (SimdLevel level : availableLevels()) out.push_back(&simdKernels(level));
  return out;
}

Matrix randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  sim::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k)
    m.data()[k] = rng.uniform(-1.0, 1.0);
  return m;
}

std::vector<double> randomPositive(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.1, 2.0);
  return v;
}

void expectClose(const Matrix& got, const Matrix& want, const char* label) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t k = 0; k < got.size(); ++k) {
    const double scale = std::max(1.0, std::fabs(want.data()[k]));
    EXPECT_NEAR(got.data()[k], want.data()[k], 1e-12 * scale)
        << label << " element " << k;
  }
}

// ---------- raw kernel parity across levels ----------

TEST(SimdKernels, GemmMatchesScalarOnEveryLevel) {
  // Odd shapes on purpose: 61 exercises the vector tails, 7/13 the short
  // panel edge cases.
  constexpr std::tuple<int, int, int> kShapes[] = {
      {13, 61, 61}, {7, 61, 61}, {1, 61, 61}, {13, 5, 9}, {64, 61, 61}};
  for (auto [m, k, n] : kShapes) {
    const Matrix a = randomMatrix(m, k, 17);
    const Matrix b = randomMatrix(k, n, 23);
    Matrix want(m, n);
    simdKernels(SimdLevel::Scalar)
        .gemm(a.data(), b.data(), want.data(), m, k, n);
    for (const SimdKernels* kern : availableTables()) {
      Matrix got(m, n);
      kern->gemm(a.data(), b.data(), got.data(), m, k, n);
      expectClose(got, want, kern->name);
    }
  }
}

// The vector tables' gemm computes every element as the k-ordered FMA
// chain from +0.0, c(i,j) = fma(a(i,k-1), b(k-1,j), ... fma(a(i,0), b(0,j),
// +0.0)), whatever the register blocking: every row remainder mod 4, every
// tail width, and no write past the last element.  Operands mix exact
// zeros, signs and magnitudes near 1e-300, so a reordered or unfused sum
// shows in the bits.
TEST(SimdKernels, VectorGemmIsTheKOrderedFmaChain) {
  std::vector<const SimdKernels*> tables;
  for (SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512})
    if (simdLevelAvailable(level)) tables.push_back(&simdKernels(level));
  if (tables.empty()) GTEST_SKIP() << "no vector level on this host";

  const auto operand = [](std::size_t count, std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<double> v(count);
    for (std::size_t i = 0; i < count; ++i) {
      v[i] = rng.uniform(-1.0, 1.0);
      if (i % 5 == 1) v[i] = 0.0;
      if (i % 7 == 3) v[i] *= 1e-300;
    }
    return v;
  };
  constexpr std::size_t kGuard = 9;
  const double sentinel = -1234.5;
  for (std::size_t m : {1, 2, 3, 4, 5, 7, 64, 65})
    for (std::size_t k : {1, 3, 61})
      for (std::size_t n :
           {1, 3, 4, 5, 7, 8, 9, 12, 13, 31, 32, 33, 61, 64, 65, 122}) {
        const auto a = operand(m * k, 100 + m * k);
        const auto b = operand(k * n, 200 + k * n);
        std::vector<std::uint64_t> want(m * n);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t q = 0; q < k; ++q)
              acc = std::fma(a[i * k + q], b[q * n + j], acc);
            want[i * n + j] = std::bit_cast<std::uint64_t>(acc);
          }
        for (const SimdKernels* kern : tables) {
          std::vector<double> c(m * n + kGuard, sentinel);
          kern->gemm(a.data(), b.data(), c.data(), m, k, n);
          std::size_t mismatches = 0;
          for (std::size_t e = 0; e < m * n; ++e)
            mismatches += std::bit_cast<std::uint64_t>(c[e]) != want[e];
          EXPECT_EQ(mismatches, 0u)
              << kern->name << " m=" << m << " k=" << k << " n=" << n;
          for (std::size_t e = m * n; e < c.size(); ++e)
            EXPECT_EQ(c[e], sentinel)
                << kern->name << " wrote past the end, m=" << m << " k=" << k
                << " n=" << n;
        }
      }
}

TEST(SimdKernels, GemmNTAndSyrkMatchScalarOnEveryLevel) {
  const int m = 13, k = 61, n = 61;
  const Matrix a = randomMatrix(m, k, 31);
  const Matrix b = randomMatrix(n, k, 37);
  const Matrix y = randomMatrix(n, k, 41);
  Matrix wantNT(m, n), wantSyrk(n, n);
  simdKernels(SimdLevel::Scalar)
      .gemmNT(a.data(), b.data(), wantNT.data(), m, k, n);
  simdKernels(SimdLevel::Scalar).syrk(y.data(), wantSyrk.data(), n, k);
  for (const SimdKernels* kern : availableTables()) {
    Matrix gotNT(m, n), gotSyrk(n, n);
    kern->gemmNT(a.data(), b.data(), gotNT.data(), m, k, n);
    kern->syrk(y.data(), gotSyrk.data(), n, k);
    expectClose(gotNT, wantNT, kern->name);
    expectClose(gotSyrk, wantSyrk, kern->name);
  }
}

TEST(SimdKernels, FusedSandwichMatchesScalarOnEveryLevel) {
  const int n = 61;
  const Matrix y = randomMatrix(n, n, 43);
  const auto l = randomPositive(n, 47);
  const auto r = randomPositive(n, 53);
  Matrix wantSyrk(n, n), wantGemm(n, n);
  simdKernels(SimdLevel::Scalar)
      .syrkSandwich(y.data(), l.data(), r.data(), wantSyrk.data(), n, n,
                    OutputLayout::Plain);
  simdKernels(SimdLevel::Scalar)
      .gemmNTSandwich(y.data(), y.data(), l.data(), r.data(), wantGemm.data(),
                      n, n, n, false, OutputLayout::Plain);
  for (const SimdKernels* kern : availableTables()) {
    Matrix gotSyrk(n, n), gotGemm(n, n);
    kern->syrkSandwich(y.data(), l.data(), r.data(), gotSyrk.data(), n, n,
                       OutputLayout::Plain);
    kern->gemmNTSandwich(y.data(), y.data(), l.data(), r.data(),
                         gotGemm.data(), n, n, n, false, OutputLayout::Plain);
    expectClose(gotSyrk, wantSyrk, kern->name);
    expectClose(gotGemm, wantGemm, kern->name);
  }
}

// ---------- the stored layout moves only the stores ----------

std::size_t bitMismatches(const Matrix& got, const Matrix& want) {
  std::size_t bad = 0;
  for (std::size_t k = 0; k < want.size(); ++k)
    bad += std::bit_cast<std::uint64_t>(got.data()[k]) !=
           std::bit_cast<std::uint64_t>(want.data()[k]);
  return bad;
}

// ---------- every table's fusion is bit-exact ----------

// Unfused reference: the table's product z, then scaleSandwich, then the
// clamp when asked.
Matrix unfusedSandwich(const Matrix& z, const std::vector<double>& l,
                       const std::vector<double>& r, bool clampNegative) {
  Matrix out(z.rows(), z.cols());
  scaleSandwich(z, l, r, out);
  if (clampNegative)
    for (std::size_t k = 0; k < out.size(); ++k)
      if (out.data()[k] < 0.0) out.data()[k] = 0.0;
  return out;
}

// Uniform(-1, 1) entries with exact zeros: every seventh entry and the whole
// first row, so the products include exact zeros beside negative values.
Matrix operandWithZeros(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  Matrix m = randomMatrix(rows, cols, seed);
  for (std::size_t e = 0; e < m.size(); e += 7) m.data()[e] = 0.0;
  for (std::size_t j = 0; j < cols; ++j) m(0, j) = 0.0;
  return m;
}

// Elements of a table's fused sandwich outputs on n x k operands whose bits
// differ from its own unfused product followed by scaleSandwich and the
// clamp: both layouts, and gemmNTSandwich with the clamp on and off.
std::size_t fusionMismatches(const SimdKernels& kern, std::size_t n,
                             std::size_t k) {
  const Matrix y = operandWithZeros(n, k, 900 + n * k);
  const Matrix b = operandWithZeros(n, k, 1000 + n * k);
  const auto l = randomPositive(n, 1100 + n);
  const auto r = randomPositive(n, 1200 + n);
  Matrix z(n, n), got(n, n);
  kern.syrk(y.data(), z.data(), n, k);
  const Matrix wantSyrk = unfusedSandwich(z, l, r, true);
  kern.gemmNT(y.data(), b.data(), z.data(), n, k, n);
  std::size_t bad = 0;
  for (OutputLayout layout : {OutputLayout::Plain, OutputLayout::Transposed}) {
    const auto stored = [&](const Matrix& m) {
      return layout == OutputLayout::Plain ? m : transposed(m);
    };
    kern.syrkSandwich(y.data(), l.data(), r.data(), got.data(), n, k, layout);
    bad += bitMismatches(stored(got), wantSyrk);
    for (bool clampNegative : {true, false}) {
      kern.gemmNTSandwich(y.data(), b.data(), l.data(), r.data(), got.data(),
                          n, k, n, clampNegative, layout);
      bad += bitMismatches(stored(got),
                           unfusedSandwich(z, l, r, clampNegative));
    }
  }
  return bad;
}

// The vector tables' sandwich entries reduce eight dots at once; their
// unfused syrk and gemmNT reduce one, so this pins the blocked reduction to
// the per-element one on every shape class: k below, at and past one, four
// and eight vectors with and without a masked tail, and n with a partial
// last block of eight.
TEST(SimdKernels, FusedSandwichIsBitIdenticalToUnfused) {
  constexpr std::size_t kSizes[] = {1,  3,  7,  8,  9,  31, 32,
                                    33, 60, 61, 62, 64, 65};
  for (const SimdKernels* kern : availableTables())
    for (std::size_t n : kSizes)
      for (std::size_t k : kSizes)
        EXPECT_EQ(fusionMismatches(*kern, n, k), 0u)
            << kern->name << " n=" << n << " k=" << k;
}

// Elements of a table's Transposed sandwich outputs whose bits differ from
// the transpose of its Plain outputs: syrkSandwich on n x k panels, and
// gemmNTSandwich with clamp on and off on n x n and 7 x n outputs.
std::size_t layoutMismatches(const SimdKernels& kern) {
  std::size_t bad = 0;
  for (std::size_t n : {1, 3, 5, 8, 61, 64, 65})
    for (std::size_t k : {1, 3, 61}) {
      const Matrix y = randomMatrix(n, k, 300 + n * k);
      const Matrix b = randomMatrix(n, k, 400 + n * k);
      const auto l = randomPositive(n, 500 + n);
      const auto r = randomPositive(n, 600 + n);
      Matrix plain(n, n), stored(n, n);
      kern.syrkSandwich(y.data(), l.data(), r.data(), plain.data(), n, k,
                        OutputLayout::Plain);
      kern.syrkSandwich(y.data(), l.data(), r.data(), stored.data(), n, k,
                        OutputLayout::Transposed);
      bad += bitMismatches(stored, transposed(plain));
      for (std::size_t m : {n, std::size_t{7}}) {
        const Matrix a = randomMatrix(m, k, 700 + m * k);
        const auto lm = randomPositive(m, 800 + m);
        for (bool clampNegative : {true, false}) {
          Matrix c(m, n), cT(n, m);
          kern.gemmNTSandwich(a.data(), b.data(), lm.data(), r.data(),
                              c.data(), m, k, n, clampNegative,
                              OutputLayout::Plain);
          kern.gemmNTSandwich(a.data(), b.data(), lm.data(), r.data(),
                              cT.data(), m, k, n, clampNegative,
                              OutputLayout::Transposed);
          bad += bitMismatches(cT, transposed(c));
        }
      }
    }
  return bad;
}

TEST(SimdKernels, TransposedSandwichIsThePlainOneTransposed) {
  for (const SimdKernels* kern : availableTables())
    EXPECT_EQ(layoutMismatches(*kern), 0u) << kern->name;
}

// Getting P^T by swapping l and r (and the operands) computes
// (r[i] * t) * l[j] where (l[j] * t) * r[i] is due; the check above must
// see that in the bits.
void swappedSyrkSandwich(const double* y, const double* l, const double* r,
                         double* p, std::size_t n, std::size_t k,
                         OutputLayout layout) {
  const bool swap = layout == OutputLayout::Transposed;
  simdKernels(SimdLevel::Scalar)
      .syrkSandwich(y, swap ? r : l, swap ? l : r, p, n, k,
                    OutputLayout::Plain);
}

void swappedGemmNTSandwich(const double* a, const double* b, const double* l,
                           const double* r, double* c, std::size_t m,
                           std::size_t k, std::size_t n, bool clampNegative,
                           OutputLayout layout) {
  const SimdKernels& scalar = simdKernels(SimdLevel::Scalar);
  if (layout == OutputLayout::Transposed)
    scalar.gemmNTSandwich(b, a, r, l, c, n, k, m, clampNegative,
                          OutputLayout::Plain);
  else
    scalar.gemmNTSandwich(a, b, l, r, c, m, k, n, clampNegative,
                          OutputLayout::Plain);
}

TEST(SimdKernels, LayoutCheckCatchesSwappedScaling) {
  SimdKernels swapped = simdKernels(SimdLevel::Scalar);
  swapped.syrkSandwich = swappedSyrkSandwich;
  swapped.gemmNTSandwich = swappedGemmNTSandwich;
  EXPECT_GT(layoutMismatches(swapped), 0u);
}

TEST(SimdKernels, TransitionMatrixMatchesUnfusedSequenceBitwise) {
  sim::Rng rng(71);
  const auto pi = sim::randomCodonFrequencies(61, 5, rng);
  Matrix s(61, 61);
  model::buildExchangeability(bio::GeneticCode::universal(), 2.0, 0.4, s);
  const expm::CodonEigenSystem es(s, pi);
  const std::vector<double> l(es.invSqrtPi().begin(), es.invSqrtPi().end());
  const std::vector<double> r(es.sqrtPi().begin(), es.sqrtPi().end());

  // Steps 3-4 of the pipeline by hand: Y = X e^{Lambda t'} (t' = t/2 on the
  // Eq. 10 path, scaled by Lambda for dP/dt), then the table's product.
  const auto product = [&](const SimdKernels& kern, double t,
                           expm::ReconstructionPath path, bool derivative) {
    std::vector<double> d(61);
    for (int i = 0; i < 61; ++i) {
      const double lambda = es.eigenvalues()[i];
      d[i] = derivative ? lambda * std::exp(lambda * t)
             : path == expm::ReconstructionPath::Syrk
                 ? std::exp(0.5 * lambda * t)
                 : std::exp(lambda * t);
    }
    Matrix y(61, 61), z(61, 61);
    scaleCols(es.eigenvectors(), d, y);
    if (!derivative && path == expm::ReconstructionPath::Syrk)
      kern.syrk(y.data(), z.data(), 61, 61);
    else
      kern.gemmNT(y.data(), es.eigenvectors().data(), z.data(), 61, 61, 61);
    return z;
  };

  for (const SimdKernels* kern : availableTables()) {
    expm::ExpmWorkspace ws;
    Matrix got(61, 61);
    for (double t : {1e-4, 0.05, 0.7, 4.0}) {
      for (auto path :
           {expm::ReconstructionPath::Syrk, expm::ReconstructionPath::Gemm}) {
        es.transitionMatrix(t, path, *kern, ws, got);
        EXPECT_EQ(got, unfusedSandwich(product(*kern, t, path, false), l, r,
                                       true))
            << kern->name << " t = " << t;
      }
      es.derivativeMatrix(t, *kern, ws, got);
      EXPECT_EQ(got, unfusedSandwich(product(*kern, t,
                                             expm::ReconstructionPath::Gemm,
                                             true),
                                     l, r, false))
          << kern->name << " dP/dt at t = " << t;
    }
  }
}

TEST(SimdKernels, SimdTransitionMatrixCloseToScalar) {
  sim::Rng rng(73);
  const auto pi = sim::randomCodonFrequencies(61, 5, rng);
  Matrix s(61, 61);
  model::buildExchangeability(bio::GeneticCode::universal(), 1.8, 1.2, s);
  const expm::CodonEigenSystem es(s, pi);

  expm::ExpmWorkspace wsA, wsB;
  Matrix want(61, 61), got(61, 61);
  es.transitionMatrix(0.1, expm::ReconstructionPath::Syrk,
                      simdKernels(SimdLevel::Scalar), wsA, want);
  for (const SimdKernels* kern : availableTables()) {
    es.transitionMatrix(0.1, expm::ReconstructionPath::Syrk, *kern, wsB, got);
    expectClose(got, want, kern->name);
    // Rows of a propagator are probability distributions.
    for (int i = 0; i < 61; ++i) {
      double sum = 0.0;
      for (int j = 0; j < 61; ++j) sum += got(i, j);
      EXPECT_NEAR(sum, 1.0, 1e-9) << kern->name << " row " << i;
    }
  }
}

// ---------- one-hot panel rows are row gathers ----------

// The likelihood sweeps never multiply a leaf's panel: a one-hot row times
// a propagator adds only exact zeros, so it is row `state` of P^T (column
// `state` of P for the per-site gemmNT form), and a missing codon's all-ones
// row is computed by a 1-row call, which gives the panel row's bits because
// output row i depends only on input row i.  Pinned per table on a real P(t)
// and a signed dP/dt.
TEST(SimdKernels, OneHotPanelRowsAreRowGathers) {
  sim::Rng rng(79);
  const auto pi = sim::randomCodonFrequencies(61, 5, rng);
  Matrix s(61, 61);
  model::buildExchangeability(bio::GeneticCode::universal(), 2.2, 0.3, s);
  const expm::CodonEigenSystem es(s, pi);

  // A 64-row panel (the default block size): one-hot rows over scattered
  // states, with all-ones rows at 5 and 40.
  constexpr std::size_t kRows = 64;
  const auto isOnes = [](std::size_t r) { return r == 5 || r == 40; };
  const auto stateOf = [](std::size_t r) { return (7 * r + 3) % 61; };
  Matrix w(kRows, 61);
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t j = 0; j < 61; ++j)
      w(r, j) = isOnes(r) || j == stateOf(r) ? 1.0 : 0.0;
  const Matrix ones(1, 61, 1.0);

  for (const SimdKernels* kern : availableTables()) {
    expm::ExpmWorkspace ws;
    Matrix p(61, 61), dp(61, 61);
    es.transitionMatrix(0.3, expm::ReconstructionPath::Syrk, *kern, ws, p);
    es.derivativeMatrix(0.3, *kern, ws, dp);
    for (const Matrix* m : {&p, &dp}) {
      const Matrix mT = transposed(*m);
      Matrix panel(kRows, 61), panelNT(kRows, 61), row(1, 61), rowNT(1, 61);
      gemm(*kern, w.view(), mT.view(), panel.view());
      gemmNT(*kern, w.view(), m->view(), panelNT.view());
      gemm(*kern, ones.view(), mT.view(), row.view());
      gemmNT(*kern, ones.view(), m->view(), rowNT.view());

      Matrix gathered(kRows, 61), gatheredNT(kRows, 61);
      for (std::size_t r = 0; r < kRows; ++r)
        for (std::size_t j = 0; j < 61; ++j) {
          gathered(r, j) = isOnes(r) ? row(0, j) : mT(stateOf(r), j);
          gatheredNT(r, j) = isOnes(r) ? rowNT(0, j) : (*m)(j, stateOf(r));
        }
      const char* what = m == &p ? "P" : "dP/dt";
      EXPECT_EQ(panel, gathered) << kern->name << " gemm " << what;
      EXPECT_EQ(panelNT, gatheredNT) << kern->name << " gemmNT " << what;
    }
  }
}

// ---------- dispatch plumbing ----------

TEST(SimdDispatch, ParseAndNames) {
  SimdMode m = SimdMode::Scalar;
  EXPECT_TRUE(parseSimdMode("auto", m));
  EXPECT_EQ(m, SimdMode::Auto);
  EXPECT_TRUE(parseSimdMode("scalar", m));
  EXPECT_EQ(m, SimdMode::Scalar);
  EXPECT_TRUE(parseSimdMode("avx2", m));
  EXPECT_EQ(m, SimdMode::Avx2);
  EXPECT_TRUE(parseSimdMode("avx512", m));
  EXPECT_EQ(m, SimdMode::Avx512);
  EXPECT_FALSE(parseSimdMode("sse9", m));
  EXPECT_EQ(m, SimdMode::Avx512);  // untouched on failure

  EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
  EXPECT_STREQ(simdLevelName(SimdLevel::Avx512), "avx512");
}

TEST(SimdDispatch, ResolveContract) {
  EXPECT_EQ(resolveSimdLevel(SimdMode::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(resolveSimdLevel(SimdMode::Auto), detectSimdLevel());
  EXPECT_TRUE(simdLevelAvailable(SimdLevel::Scalar));
  EXPECT_TRUE(simdLevelAvailable(detectSimdLevel()));

  constexpr std::pair<SimdMode, SimdLevel> kPairs[] = {
      {SimdMode::Avx2, SimdLevel::Avx2},
      {SimdMode::Avx512, SimdLevel::Avx512}};
  for (auto [mode, level] : kPairs) {
    if (simdLevelAvailable(level)) {
      EXPECT_EQ(resolveSimdLevel(mode), level);
    } else {
      EXPECT_THROW(resolveSimdLevel(mode), std::invalid_argument);
    }
  }
}

// The codeml flavor gets the naive table at level scalar whatever `simd =`
// says, even a level the host cannot run.  The slim flavor gets the table
// of the level `simd =` resolves to, so an explicit request for the level
// auto picks runs auto's table, entry for entry.  The `backend` label
// follows the level.
TEST(SimdDispatch, ResolveKernelsContract) {
  const auto sameTable = [](const SimdKernels& a, const SimdKernels& b) {
    return a.name == b.name && a.gemm == b.gemm && a.gemmNT == b.gemmNT &&
           a.syrk == b.syrk && a.syrkSandwich == b.syrkSandwich &&
           a.gemmNTSandwich == b.gemmNTSandwich;
  };
  for (SimdMode mode :
       {SimdMode::Auto, SimdMode::Scalar, SimdMode::Avx2, SimdMode::Avx512}) {
    const KernelChoice naive = resolveKernels(Flavor::Naive, mode);
    EXPECT_TRUE(sameTable(naive.ops, naiveKernels())) << simdModeName(mode);
    EXPECT_EQ(naive.level, SimdLevel::Scalar) << simdModeName(mode);
  }

  const KernelChoice autoChoice = resolveKernels(Flavor::Opt, SimdMode::Auto);
  EXPECT_EQ(autoChoice.level, detectSimdLevel());
  constexpr std::pair<SimdMode, SimdLevel> kPairs[] = {
      {SimdMode::Scalar, SimdLevel::Scalar},
      {SimdMode::Avx2, SimdLevel::Avx2},
      {SimdMode::Avx512, SimdLevel::Avx512}};
  for (auto [mode, level] : kPairs) {
    if (!simdLevelAvailable(level)) {
      EXPECT_THROW(resolveKernels(Flavor::Opt, mode), std::invalid_argument);
      continue;
    }
    const KernelChoice opt = resolveKernels(Flavor::Opt, mode);
    EXPECT_EQ(opt.level, level);
    EXPECT_TRUE(sameTable(opt.ops, simdKernels(level))) << simdModeName(mode);
    EXPECT_EQ(sameTable(opt.ops, autoChoice.ops), level == detectSimdLevel())
        << simdModeName(mode);
  }

  EXPECT_STREQ(backendLabel(SimdLevel::Scalar), "reference");
  EXPECT_STREQ(backendLabel(SimdLevel::Avx2), "simd");
  EXPECT_STREQ(backendLabel(SimdLevel::Avx512), "simd");
}

}  // namespace
}  // namespace slim::linalg

// ---------- likelihood-level parity ----------

namespace slim::lik {
namespace {

using linalg::SimdLevel;
using linalg::SimdMode;
using model::BranchSiteParams;
using model::Hypothesis;

struct Fixture {
  seqio::CodonAlignment alignment;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

// `gapped` adds missing codons (testutil::withMissingCodons), so the leaf
// sweeps read their all-ones rows as well as one-hot gathers.
Fixture makeFixture(bool gapped = false) {
  const sim::Dataset ds = sim::makeSweepDataset(8, /*seed=*/20260731, 40);
  Fixture f;
  f.alignment = seqio::encodeCodons(
      gapped ? testutil::withMissingCodons(ds.alignment, 5) : ds.alignment,
      bio::GeneticCode::universal());
  f.patterns = seqio::compressPatterns(f.alignment);
  f.pi = testutil::randomFrequencies(bio::GeneticCode::universal().numSense(),
                                     11);
  f.tree = ds.tree;
  return f;
}

BranchSiteParams testParams() {
  BranchSiteParams p;
  p.kappa = 2.3;
  p.omega0 = 0.15;
  p.omega2 = 2.1;
  p.p0 = 0.55;
  p.p1 = 0.30;
  return p;
}

SimdMode modeFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar: return SimdMode::Scalar;
    case SimdLevel::Avx2: return SimdMode::Avx2;
    case SimdLevel::Avx512: return SimdMode::Avx512;
  }
  return SimdMode::Scalar;
}

LikelihoodOptions optionsFor(SimdLevel level, PropagationStrategy strategy,
                             int threads = 1, int blockSize = 8) {
  LikelihoodOptions o = slimOptions();
  o.simd = modeFor(level);
  o.propagation = strategy;
  o.numThreads = threads;
  o.blockSize = blockSize;
  return o;
}

// Every compiled SIMD level agrees with scalar to <= 1e-10 relative lnL on
// both propagation strategies (bundled gemm, per-site gemmNT panel).
TEST(SimdLikelihood, LnlAgreesWithScalarWithin1e10Relative) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  for (auto strategy :
       {PropagationStrategy::BundledGemm, PropagationStrategy::PerSiteGemv}) {
    BranchSiteLikelihood scalarEval(f.alignment, f.patterns, f.pi, f.tree,
                                    Hypothesis::H1,
                                    optionsFor(SimdLevel::Scalar, strategy));
    const double want = scalarEval.logLikelihood(p);
    ASSERT_TRUE(std::isfinite(want));
    for (SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
      if (!linalg::simdLevelAvailable(level)) continue;
      BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, optionsFor(level, strategy));
      EXPECT_EQ(eval.simdLevel(), level);
      const double got = eval.logLikelihood(p);
      EXPECT_LE(std::fabs(got - want), 1e-10 * std::fabs(want))
          << linalg::simdLevelName(level) << " "
          << propagationStrategyName(strategy);
    }
  }
}

// Each SIMD level is bit-identical to itself for every thread count and
// block size — the same invariance the scalar engine has always asserted —
// in lnL and the analytic gradient, under both strategies, with and without
// missing codons.
TEST(SimdLikelihood, EachLevelBitIdenticalAcrossThreadsAndBlocks) {
  const BranchSiteParams p = testParams();
  for (bool gapped : {false, true}) {
    const Fixture f = makeFixture(gapped);
    for (SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
      if (!linalg::simdLevelAvailable(level)) continue;
      for (auto strategy : {PropagationStrategy::BundledGemm,
                            PropagationStrategy::PerSiteGemv}) {
        BranchSiteLikelihood reference(f.alignment, f.patterns, f.pi, f.tree,
                                       Hypothesis::H1,
                                       optionsFor(level, strategy, 1, 8));
        const double want = reference.logLikelihood(p);
        ASSERT_TRUE(std::isfinite(want));
        const auto wantGrad = testutil::lnLAndGradient(reference, p);
        for (int threads : {1, 2, 8}) {
          for (int blockSize : {0, 7, 64}) {
            BranchSiteLikelihood eval(
                f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
                optionsFor(level, strategy, threads, blockSize));
            EXPECT_EQ(eval.logLikelihood(p), want)
                << linalg::simdLevelName(level) << " "
                << propagationStrategyName(strategy) << " gapped = " << gapped
                << " threads = " << threads << " blockSize = " << blockSize;
            EXPECT_EQ(testutil::lnLAndGradient(eval, p), wantGrad)
                << linalg::simdLevelName(level) << " "
                << propagationStrategyName(strategy) << " gapped = " << gapped
                << " threads = " << threads << " blockSize = " << blockSize;
          }
        }
      }
    }
  }
}

// The analytic branch-gradient sweep shares the kernels; it must keep the
// same two properties (partition invariance per level, closeness to scalar).
TEST(SimdLikelihood, GradientSweepInvariantPerLevelAndCloseToScalar) {
  const BranchSiteParams p = testParams();
  for (bool gapped : {false, true}) {
    const Fixture f = makeFixture(gapped);
    BranchSiteLikelihood scalarEval(
        f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
        optionsFor(SimdLevel::Scalar, PropagationStrategy::BundledGemm));
    const auto [scalarLnl, scalarGrad] =
        testutil::lnLAndGradient(scalarEval, p);
    ASSERT_TRUE(std::isfinite(scalarLnl));

    for (SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
      if (!linalg::simdLevelAvailable(level)) continue;
      std::vector<double> want;
      for (int threads : {1, 2, 8}) {
        BranchSiteLikelihood eval(
            f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
            optionsFor(level, PropagationStrategy::BundledGemm, threads, 8));
        const auto [lnL, grad] = testutil::lnLAndGradient(eval, p);
        EXPECT_LE(std::fabs(lnL - scalarLnl), 1e-10 * std::fabs(scalarLnl));
        if (want.empty()) {
          want = grad;
          for (std::size_t k = 0; k < grad.size(); ++k) {
            const double scale = std::max(1.0, std::fabs(scalarGrad[k]));
            EXPECT_NEAR(grad[k], scalarGrad[k], 1e-8 * scale)
                << linalg::simdLevelName(level) << " gapped = " << gapped
                << " branch " << k;
          }
        } else {
          EXPECT_EQ(grad, want) << linalg::simdLevelName(level)
                                << " gapped = " << gapped
                                << " threads = " << threads;
        }
      }
    }
  }
}

// simd = scalar resolves to the scalar table, and the Naive flavor always
// reports scalar regardless of the requested mode.
TEST(SimdLikelihood, ScalarModeAndNaiveFlavorContracts) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();

  LikelihoodOptions naive = codemlBaselineOptions();
  naive.simd = SimdMode::Auto;
  BranchSiteLikelihood naiveEval(f.alignment, f.patterns, f.pi, f.tree,
                                 Hypothesis::H1, naive);
  EXPECT_EQ(naiveEval.simdLevel(), SimdLevel::Scalar);

  LikelihoodOptions scalar = slimOptions();
  scalar.simd = SimdMode::Scalar;
  BranchSiteLikelihood scalarEval(f.alignment, f.patterns, f.pi, f.tree,
                                  Hypothesis::H1, scalar);
  EXPECT_EQ(scalarEval.simdLevel(), SimdLevel::Scalar);
  // Naive and Opt agree to analysis tolerance but not bitwise; just check
  // both produce finite, close values here.
  const double a = naiveEval.logLikelihood(p);
  const double b = scalarEval.logLikelihood(p);
  ASSERT_TRUE(std::isfinite(a));
  ASSERT_TRUE(std::isfinite(b));
  EXPECT_NEAR(a, b, 1e-6 * std::fabs(b));
}

// The transitional LikelihoodOptions::backend (ROADMAP item 7): Reference
// runs the scalar table and says so.  Under `simd = auto` it reports level
// scalar, and its lnL and analytic branch gradient equal `simd = scalar`'s
// bit for bit at every thread count and block size, which is what
// e2ebench's reference lnL relies on.
TEST(SimdLikelihood, TransitionalReferenceIsTheScalarTable) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  for (int threads : {1, 2, 8}) {
    for (int blockSize : {0, 7, 64}) {
      const LikelihoodOptions scalar = optionsFor(
          SimdLevel::Scalar, PropagationStrategy::BundledGemm, threads,
          blockSize);
      LikelihoodOptions reference = scalar;
      reference.simd = SimdMode::Auto;
      reference.backend = backend::BackendMode::Reference;
      BranchSiteLikelihood scalarEval(f.alignment, f.patterns, f.pi, f.tree,
                                      Hypothesis::H1, scalar);
      BranchSiteLikelihood refEval(f.alignment, f.patterns, f.pi, f.tree,
                                   Hypothesis::H1, reference);
      EXPECT_EQ(refEval.simdLevel(), SimdLevel::Scalar);
      EXPECT_EQ(refEval.logLikelihood(p), scalarEval.logLikelihood(p))
          << "threads = " << threads << " blockSize = " << blockSize;
      EXPECT_EQ(testutil::lnLAndGradient(refEval, p),
                testutil::lnLAndGradient(scalarEval, p))
          << "threads = " << threads << " blockSize = " << blockSize;
    }
  }
}

TEST(SimdLikelihood, ExplicitUnavailableLevelFailsConstruction) {
  const Fixture f = makeFixture();
  for (SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
    if (linalg::simdLevelAvailable(level)) continue;
    EXPECT_THROW(
        BranchSiteLikelihood(
            f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
            optionsFor(level, PropagationStrategy::BundledGemm)),
        std::invalid_argument);
  }
  SUCCEED();  // on fully-capable hosts the loop body never runs
}

}  // namespace
}  // namespace slim::lik
