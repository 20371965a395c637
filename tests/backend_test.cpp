// Tests for the pluggable compute-backend subsystem (src/backend/).
//
// The contract under test:
//   * `backend = reference` is bit-identical (EXPECT_EQ) to the engine's
//     default path at scalar SIMD — lnL and the analytic branch gradient,
//     across thread counts and block sizes;
//   * every backend available in the build agrees with reference to
//     <= 1e-10 relative on the log-likelihood;
//   * the adaptive (Higham scaling-and-squaring) expm matches the eigen
//     propagator to <= 1e-12 on reversible Q and an independent
//     Taylor-series reference on random non-reversible Q, including norms
//     large enough to force multiple squarings;
//   * an explicitly requested backend missing from the build fails loudly
//     at evaluator construction (std::invalid_argument), like `simd =`.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "backend/compute_backend.hpp"
#include "backend/expm_pade.hpp"
#include "expm/codon_eigen_system.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "linalg/blas3.hpp"
#include "linalg/simd.hpp"
#include "model/codon_model.hpp"
#include "seqio/alignment.hpp"
#include "sim/datasets.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace slim::backend {
namespace {

using linalg::Matrix;

std::vector<BackendKind> availableBackends() {
  std::vector<BackendKind> out;
  for (const auto k :
       {BackendKind::Reference, BackendKind::Simd, BackendKind::Blas})
    if (backendCompiled(k)) out.push_back(k);
  return out;
}

// ---------- plumbing: names, parsing, resolution ----------

TEST(BackendPlumbing, ParseAndNames) {
  BackendMode m = BackendMode::Reference;
  EXPECT_TRUE(parseBackendMode("auto", m));
  EXPECT_EQ(m, BackendMode::Auto);
  EXPECT_TRUE(parseBackendMode("reference", m));
  EXPECT_EQ(m, BackendMode::Reference);
  EXPECT_TRUE(parseBackendMode("simd", m));
  EXPECT_EQ(m, BackendMode::Simd);
  EXPECT_TRUE(parseBackendMode("blas", m));
  EXPECT_EQ(m, BackendMode::Blas);
  EXPECT_FALSE(parseBackendMode("cuda", m));
  EXPECT_EQ(m, BackendMode::Blas);  // untouched on failure

  BackendKind k = BackendKind::Simd;
  EXPECT_TRUE(parseBackendKind("reference", k));
  EXPECT_EQ(k, BackendKind::Reference);
  EXPECT_FALSE(parseBackendKind("auto", k));  // kinds are resolved, no auto
  EXPECT_EQ(k, BackendKind::Reference);

  EXPECT_STREQ(backendModeName(BackendMode::Auto), "auto");
  EXPECT_STREQ(backendKindName(BackendKind::Reference), "reference");
  EXPECT_STREQ(backendKindName(BackendKind::Simd), "simd");
  EXPECT_STREQ(backendKindName(BackendKind::Blas), "blas");
}

TEST(BackendPlumbing, AutoReproducesPreBackendDispatch) {
  // Auto at scalar SIMD is the reference (scalar) table; at any vector
  // level it is that level's table.  Auto never opts into vendor BLAS.
  EXPECT_EQ(resolveBackendKind(BackendMode::Auto, linalg::SimdLevel::Scalar),
            BackendKind::Reference);
  for (const auto level : {linalg::SimdLevel::Avx2, linalg::SimdLevel::Avx512})
    if (linalg::simdLevelAvailable(level))
      EXPECT_EQ(resolveBackendKind(BackendMode::Auto, level),
                BackendKind::Simd);
}

TEST(BackendPlumbing, ReferenceAndSimdAlwaysCompiled) {
  EXPECT_TRUE(backendCompiled(BackendKind::Reference));
  EXPECT_TRUE(backendCompiled(BackendKind::Simd));
}

TEST(BackendPlumbing, UnavailableExplicitBackendThrowsKeyed) {
  if (backendCompiled(BackendKind::Blas)) {
    EXPECT_EQ(resolveBackendKind(BackendMode::Blas, linalg::SimdLevel::Scalar),
              BackendKind::Blas);
    return;
  }
  try {
    resolveBackendKind(BackendMode::Blas, linalg::SimdLevel::Scalar);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("blas"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("SLIM_WITH_BLAS"), std::string::npos);
  }
}

TEST(BackendPlumbing, DescriptorCarriesMatchingTable) {
  for (const BackendKind kind : availableBackends()) {
    const ComputeBackend be = computeBackend(kind, linalg::detectSimdLevel());
    EXPECT_EQ(be.kind, kind);
    EXPECT_STREQ(be.name, backendKindName(kind));
    ASSERT_NE(be.ops.gemm, nullptr);
    ASSERT_NE(be.ops.gemmNT, nullptr);
    ASSERT_NE(be.ops.syrk, nullptr);
    ASSERT_NE(be.ops.syrkSandwich, nullptr);
    ASSERT_NE(be.ops.gemmNTSandwich, nullptr);
  }
}

// ---------- raw kernel parity: every backend vs the scalar table ----------

Matrix randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  sim::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k)
    m.data()[k] = rng.uniform(-1.0, 1.0);
  return m;
}

TEST(BackendKernels, PanelsMatchReferenceOnEveryBackend) {
  const int m = 13, k = 61, n = 61;
  const Matrix a = randomMatrix(m, k, 101);
  const Matrix b = randomMatrix(k, n, 103);
  const Matrix bt = randomMatrix(n, k, 107);
  const Matrix y = randomMatrix(n, k, 109);
  const auto& ref = linalg::simdKernels(linalg::SimdLevel::Scalar);
  Matrix wantGemm(m, n), wantNT(m, n), wantSyrk(n, n);
  ref.gemm(a.data(), b.data(), wantGemm.data(), m, k, n);
  ref.gemmNT(a.data(), bt.data(), wantNT.data(), m, k, n);
  ref.syrk(y.data(), wantSyrk.data(), n, k);

  for (const BackendKind kind : availableBackends()) {
    const ComputeBackend be = computeBackend(kind, linalg::detectSimdLevel());
    Matrix gotGemm(m, n), gotNT(m, n), gotSyrk(n, n);
    be.ops.gemm(a.data(), b.data(), gotGemm.data(), m, k, n);
    be.ops.gemmNT(a.data(), bt.data(), gotNT.data(), m, k, n);
    be.ops.syrk(y.data(), gotSyrk.data(), n, k);
    for (std::size_t i = 0; i < wantGemm.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(wantGemm.data()[i]));
      EXPECT_NEAR(gotGemm.data()[i], wantGemm.data()[i], 1e-12 * scale)
          << be.name << " gemm element " << i;
    }
    for (std::size_t i = 0; i < wantNT.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(wantNT.data()[i]));
      EXPECT_NEAR(gotNT.data()[i], wantNT.data()[i], 1e-12 * scale)
          << be.name << " gemmNT element " << i;
    }
    for (std::size_t i = 0; i < wantSyrk.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(wantSyrk.data()[i]));
      EXPECT_NEAR(gotSyrk.data()[i], wantSyrk.data()[i], 1e-12 * scale)
          << be.name << " syrk element " << i;
    }
  }
}

// ---------- adaptive expm vs eigen path (reversible Q) ----------

TEST(AdaptiveExpm, MatchesEigenPathOnReversibleQ) {
  sim::Rng rng(211);
  const auto pi = sim::randomCodonFrequencies(61, 5, rng);
  Matrix s(61, 61);
  model::buildExchangeability(bio::GeneticCode::universal(), 2.0, 0.4, s);
  const expm::CodonEigenSystem es(s, pi);
  Matrix q(61, 61);
  model::buildRateMatrix(s, pi, q);

  expm::ExpmWorkspace ews;
  AdaptiveExpmWorkspace aws;
  Matrix want(61, 61), qt(61, 61), got(61, 61);
  const auto& kern = linalg::simdKernels(linalg::SimdLevel::Scalar);
  for (double t : {1e-4, 0.05, 0.7, 4.0}) {
    es.transitionMatrix(t, expm::ReconstructionPath::Syrk, kern, ews, want);
    for (std::size_t k = 0; k < q.size(); ++k) qt.data()[k] = q.data()[k] * t;
    expmAdaptive(qt, kern, aws, got);
    for (std::size_t k = 0; k < got.size(); ++k) {
      const double scale = std::max(1.0, std::fabs(want.data()[k]));
      ASSERT_NEAR(got.data()[k], want.data()[k], 1e-12 * scale)
          << "t = " << t << " element " << k;
    }
    // Rows of a propagator are probability distributions.
    for (int i = 0; i < 61; ++i) {
      double sum = 0.0;
      for (int j = 0; j < 61; ++j) sum += got(i, j);
      EXPECT_NEAR(sum, 1.0, 1e-10) << "t = " << t << " row " << i;
    }
  }
}

// ---------- adaptive expm vs Taylor reference (non-reversible Q) ----------

/// Independent reference: scale A by 2^-s until ||A/2^s||_1 <= 0.25, sum the
/// Taylor series to convergence (no cancellation at that norm), square back.
/// Shares no Pade machinery with the implementation under test.
Matrix expmTaylorReference(const Matrix& a) {
  const std::size_t n = a.rows();
  double norm1 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) col += std::fabs(a(i, j));
    norm1 = std::max(norm1, col);
  }
  int s = 0;
  while (norm1 > 0.25) {
    norm1 *= 0.5;
    ++s;
  }
  Matrix b = a;
  const double scale = std::ldexp(1.0, -s);
  for (std::size_t k = 0; k < b.size(); ++k) b.data()[k] *= scale;

  const auto& scalar = linalg::simdKernels(linalg::SimdLevel::Scalar);
  Matrix sum = Matrix::identity(n);
  Matrix term = Matrix::identity(n);
  Matrix next(n, n);
  for (int k = 1; k <= 64; ++k) {
    // term := term * b / k
    linalg::gemm(scalar, term.view(), b.view(), next.view());
    double maxTerm = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i) {
      next.data()[i] /= k;
      maxTerm = std::max(maxTerm, std::fabs(next.data()[i]));
    }
    std::swap(term, next);
    for (std::size_t i = 0; i < sum.size(); ++i)
      sum.data()[i] += term.data()[i];
    if (maxTerm < 1e-20) break;
  }
  for (int r = 0; r < s; ++r) {
    linalg::gemm(scalar, sum.view(), sum.view(), next.view());
    std::swap(sum, next);
  }
  return sum;
}

/// Random generator matrix with no reversibility structure: independent
/// off-diagonal rates, diagonal = -row sum.
Matrix randomNonReversibleQ(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      q(i, j) = rng.uniform(0.0, 1.0);
      row += q(i, j);
    }
    q(i, i) = -row;
  }
  return q;
}

TEST(AdaptiveExpm, MatchesTaylorReferenceOnNonReversibleQ) {
  const auto& kern = linalg::simdKernels(linalg::SimdLevel::Scalar);
  AdaptiveExpmWorkspace ws;
  for (const std::uint64_t seed : {311u, 313u, 317u}) {
    const Matrix q = randomNonReversibleQ(20, seed);
    // Small, medium and large ||Qt||_1; the large one must force the
    // degree-13 branch with multiple squarings.
    for (const double t : {0.01, 0.5, 2.5}) {
      Matrix qt = q;
      for (std::size_t k = 0; k < qt.size(); ++k) qt.data()[k] *= t;
      const Matrix want = expmTaylorReference(qt);
      Matrix got(20, 20);
      const int squarings = expmAdaptive(qt, kern, ws, got);
      if (t == 2.5) EXPECT_GE(squarings, 2) << "seed " << seed;
      for (std::size_t k = 0; k < got.size(); ++k) {
        const double scale = std::max(1.0, std::fabs(want.data()[k]));
        ASSERT_NEAR(got.data()[k], want.data()[k], 1e-12 * scale)
            << "seed " << seed << " t " << t << " element " << k;
      }
    }
  }
}

TEST(AdaptiveExpm, ConvenienceOverloadAndIdentityAtZero) {
  const Matrix q = randomNonReversibleQ(7, 331);
  Matrix zero(7, 7);
  const Matrix atZero = expmAdaptive(zero);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 7; ++j)
      EXPECT_EQ(atZero(i, j), i == j ? 1.0 : 0.0);
  // Convenience form agrees with the explicit-kernel form bitwise (same
  // arithmetic, same scalar table).
  AdaptiveExpmWorkspace ws;
  Matrix explicitOut(7, 7);
  expmAdaptive(q, linalg::simdKernels(linalg::SimdLevel::Scalar), ws,
               explicitOut);
  EXPECT_EQ(expmAdaptive(q), explicitOut);
}

TEST(ExpmPlumbing, ParseAndNames) {
  ExpmAlgorithm a = ExpmAlgorithm::Adaptive;
  EXPECT_TRUE(parseExpmAlgorithm("eigen", a));
  EXPECT_EQ(a, ExpmAlgorithm::Eigen);
  EXPECT_TRUE(parseExpmAlgorithm("adaptive", a));
  EXPECT_EQ(a, ExpmAlgorithm::Adaptive);
  EXPECT_FALSE(parseExpmAlgorithm("pade6", a));
  EXPECT_EQ(a, ExpmAlgorithm::Adaptive);
  EXPECT_STREQ(expmAlgorithmName(ExpmAlgorithm::Eigen), "eigen");
  EXPECT_STREQ(expmAlgorithmName(ExpmAlgorithm::Adaptive), "adaptive");
}

}  // namespace
}  // namespace slim::backend

// ---------- likelihood-level contracts ----------

namespace slim::lik {
namespace {

using backend::BackendKind;
using backend::BackendMode;
using backend::ExpmAlgorithm;
using model::BranchSiteParams;
using model::Hypothesis;

struct Fixture {
  seqio::CodonAlignment alignment;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

Fixture makeFixture() {
  const sim::Dataset ds = sim::makeSweepDataset(8, /*seed=*/20260808, 40);
  Fixture f;
  f.alignment = seqio::encodeCodons(ds.alignment, bio::GeneticCode::universal());
  f.patterns = seqio::compressPatterns(f.alignment);
  f.pi = testutil::randomFrequencies(bio::GeneticCode::universal().numSense(),
                                     13);
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

LikelihoodOptions optionsWith(BackendMode backend, linalg::SimdMode simd,
                              int threads = 1, int blockSize = 8) {
  LikelihoodOptions o = slimOptions();
  o.backend = backend;
  o.simd = simd;
  o.numThreads = threads;
  o.blockSize = blockSize;
  return o;
}

// `backend = reference` is the engine's default scalar path, to the last
// bit: identical lnL and analytic branch gradient for every thread count
// and block size.
TEST(BackendLikelihood, ReferenceBitIdenticalToDefaultScalarPath) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  for (const int threads : {1, 2, 8}) {
    for (const int blockSize : {0, 7, 64}) {
      BranchSiteLikelihood defaultEval(
          f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
          optionsWith(BackendMode::Auto, linalg::SimdMode::Scalar, threads,
                      blockSize));
      BranchSiteLikelihood refEval(
          f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
          optionsWith(BackendMode::Reference, linalg::SimdMode::Scalar,
                      threads, blockSize));
      EXPECT_EQ(defaultEval.backendKind(), BackendKind::Reference);
      EXPECT_EQ(refEval.backendKind(), BackendKind::Reference);
      EXPECT_EQ(refEval.logLikelihood(p), defaultEval.logLikelihood(p))
          << "threads = " << threads << " blockSize = " << blockSize;

      std::vector<double> wantGrad(defaultEval.numBranches());
      std::vector<double> gotGrad(refEval.numBranches());
      const double wantLnl = defaultEval.logLikelihoodGradientBranches(
          p, std::span<double>(wantGrad));
      const double gotLnl =
          refEval.logLikelihoodGradientBranches(p, std::span<double>(gotGrad));
      EXPECT_EQ(gotLnl, wantLnl);
      EXPECT_EQ(gotGrad, wantGrad)
          << "threads = " << threads << " blockSize = " << blockSize;
    }
  }
}

// On a vector-capable host, `backend = simd` is exactly what Auto resolves
// to — bit-identical.
TEST(BackendLikelihood, ExplicitSimdMatchesAutoBitwise) {
  if (!backend::backendCompiled(BackendKind::Simd))
    GTEST_SKIP() << "no vector SIMD level on this host";
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  BranchSiteLikelihood autoEval(
      f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
      optionsWith(BackendMode::Auto, linalg::SimdMode::Auto));
  BranchSiteLikelihood simdEval(
      f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
      optionsWith(BackendMode::Simd, linalg::SimdMode::Auto));
  EXPECT_EQ(autoEval.backendKind(), BackendKind::Simd);
  EXPECT_EQ(simdEval.backendKind(), BackendKind::Simd);
  EXPECT_EQ(simdEval.logLikelihood(p), autoEval.logLikelihood(p));
}

// Every backend available in this build agrees with reference to <= 1e-10
// relative lnL on both propagation strategies.
TEST(BackendLikelihood, EveryAvailableBackendWithin1e10OfReference) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  for (const auto strategy :
       {PropagationStrategy::BundledGemm, PropagationStrategy::PerSiteGemv}) {
    LikelihoodOptions refOpts =
        optionsWith(BackendMode::Reference, linalg::SimdMode::Scalar);
    refOpts.propagation = strategy;
    BranchSiteLikelihood refEval(f.alignment, f.patterns, f.pi, f.tree,
                                 Hypothesis::H1, refOpts);
    const double want = refEval.logLikelihood(p);
    ASSERT_TRUE(std::isfinite(want));
    for (const BackendKind kind :
         {BackendKind::Simd, BackendKind::Blas}) {
      if (!backend::backendCompiled(kind)) continue;
      LikelihoodOptions opts = optionsWith(
          kind == BackendKind::Simd ? BackendMode::Simd : BackendMode::Blas,
          linalg::SimdMode::Auto);
      opts.propagation = strategy;
      BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, opts);
      EXPECT_EQ(eval.backendKind(), kind);
      const double got = eval.logLikelihood(p);
      EXPECT_LE(std::fabs(got - want), 1e-10 * std::fabs(want))
          << backend::backendKindName(kind) << " "
          << propagationStrategyName(strategy);
    }
  }
}

TEST(BackendLikelihood, ExplicitUnavailableBackendFailsConstruction) {
  const Fixture f = makeFixture();
  for (const BackendKind kind : {BackendKind::Simd, BackendKind::Blas}) {
    if (backend::backendCompiled(kind)) continue;
    EXPECT_THROW(
        BranchSiteLikelihood(
            f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
            optionsWith(kind == BackendKind::Simd ? BackendMode::Simd
                                                  : BackendMode::Blas,
                        linalg::SimdMode::Auto)),
        std::invalid_argument);
  }
  SUCCEED();  // on fully-equipped builds the loop body never runs
}

// ---------- adaptive expm through the evaluator ----------

LikelihoodOptions adaptiveOptions(PropagationStrategy strategy,
                                  int threads = 1, int blockSize = 8) {
  LikelihoodOptions o = slimOptions();
  o.simd = linalg::SimdMode::Scalar;
  o.propagation = strategy;
  o.expm = ExpmAlgorithm::Adaptive;
  o.numThreads = threads;
  o.blockSize = blockSize;
  return o;
}

TEST(AdaptiveLikelihood, MatchesEigenPathOnBothStrategies) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  for (const auto strategy :
       {PropagationStrategy::PerSiteGemv, PropagationStrategy::BundledGemm}) {
    LikelihoodOptions eigenOpts = adaptiveOptions(strategy);
    eigenOpts.expm = ExpmAlgorithm::Eigen;
    BranchSiteLikelihood eigenEval(f.alignment, f.patterns, f.pi, f.tree,
                                   Hypothesis::H1, eigenOpts);
    BranchSiteLikelihood adaptEval(f.alignment, f.patterns, f.pi, f.tree,
                                   Hypothesis::H1, adaptiveOptions(strategy));
    EXPECT_EQ(adaptEval.expmAlgorithm(), ExpmAlgorithm::Adaptive);
    const double want = eigenEval.logLikelihood(p);
    const double got = adaptEval.logLikelihood(p);
    ASSERT_TRUE(std::isfinite(want));
    EXPECT_LE(std::fabs(got - want), 1e-10 * std::fabs(want))
        << propagationStrategyName(strategy);

    // The analytic branch gradient (dP/dt = Q P on the adaptive path)
    // agrees with the eigen path's derivative reconstruction.
    std::vector<double> wantGrad(eigenEval.numBranches());
    std::vector<double> gotGrad(adaptEval.numBranches());
    eigenEval.logLikelihoodGradientBranches(p, std::span<double>(wantGrad));
    adaptEval.logLikelihoodGradientBranches(p, std::span<double>(gotGrad));
    for (std::size_t k = 0; k < wantGrad.size(); ++k) {
      const double scale = std::max(1.0, std::fabs(wantGrad[k]));
      EXPECT_NEAR(gotGrad[k], wantGrad[k], 1e-8 * scale)
          << propagationStrategyName(strategy) << " branch " << k;
    }
  }
}

TEST(AdaptiveLikelihood, BitIdenticalAcrossThreadsAndBlocks) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();
  BranchSiteLikelihood reference(
      f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
      adaptiveOptions(PropagationStrategy::BundledGemm, 1, 8));
  const double want = reference.logLikelihood(p);
  ASSERT_TRUE(std::isfinite(want));
  for (const int threads : {1, 2, 8}) {
    for (const int blockSize : {0, 7, 64}) {
      BranchSiteLikelihood eval(
          f.alignment, f.patterns, f.pi, f.tree, Hypothesis::H1,
          adaptiveOptions(PropagationStrategy::BundledGemm, threads,
                          blockSize));
      EXPECT_EQ(eval.logLikelihood(p), want)
          << "threads = " << threads << " blockSize = " << blockSize;
    }
  }
}

}  // namespace
}  // namespace slim::lik
