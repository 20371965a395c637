// Tests for the pluggable compute-backend subsystem (src/backend/).
//
// The contract under test:
//   * `backend = reference` is bit-identical (EXPECT_EQ) to the engine's
//     default path at scalar SIMD — lnL and the analytic branch gradient,
//     across thread counts and block sizes;
//   * every backend available in the build agrees with reference to
//     <= 1e-10 relative on the log-likelihood;
//   * an explicitly requested backend missing from the build fails loudly
//     at evaluator construction (std::invalid_argument), like `simd =`.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "backend/compute_backend.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "linalg/simd.hpp"
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

  EXPECT_STREQ(backendKindName(BackendKind::Reference), "reference");
  EXPECT_STREQ(backendKindName(BackendKind::Simd), "simd");
  EXPECT_STREQ(backendKindName(BackendKind::Blas), "blas");
}

TEST(BackendPlumbing, AutoReproducesPreBackendDispatch) {
  // Auto at scalar SIMD is the reference (scalar) table; at any vector
  // level it is that level's table.  Auto never opts into vendor BLAS.
  EXPECT_EQ(resolveBackendKind(BackendMode::Auto, linalg::SimdLevel::Scalar),
            BackendKind::Reference);
  for (const auto level :
       {linalg::SimdLevel::Avx2, linalg::SimdLevel::Avx512}) {
    if (linalg::simdLevelAvailable(level)) {
      EXPECT_EQ(resolveBackendKind(BackendMode::Auto, level),
                BackendKind::Simd);
    }
  }
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

}  // namespace
}  // namespace slim::backend

// ---------- likelihood-level contracts ----------

namespace slim::lik {
namespace {

using backend::BackendKind;
using backend::BackendMode;
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

}  // namespace
}  // namespace slim::lik
