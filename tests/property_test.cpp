// Cross-module property tests: randomized invariants that must hold for any
// parameter draw, exercised as parameterized sweeps.

#include <gtest/gtest.h>

#include <cmath>

#include "expm/codon_eigen_system.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/codon_model.hpp"
#include "model/frequencies.hpp"
#include "model/site_mixture.hpp"
#include "sim/datasets.hpp"
#include "test_util.hpp"

namespace slim {
namespace {

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

// ---------- CTMC invariants over a parameter grid ----------

struct CtmcCase {
  double kappa, omega, t;
  unsigned piSeed;
};

class CtmcInvariants : public ::testing::TestWithParam<CtmcCase> {};

TEST_P(CtmcInvariants, StochasticityAndReversibility) {
  const auto [kappa, omega, t, piSeed] = GetParam();
  const auto pi = testutil::randomFrequencies(61, piSeed);
  linalg::Matrix s(61, 61);
  model::buildExchangeability(gc(), kappa, omega, s);
  const expm::CodonEigenSystem es(s, pi);
  expm::ExpmWorkspace ws;
  linalg::Matrix p(61, 61);
  es.transitionMatrix(t, expm::ReconstructionPath::Syrk,
                      linalg::simdKernels(linalg::SimdLevel::Scalar), ws, p);
  for (int i = 0; i < 61; ++i) {
    double rowSum = 0;
    for (int j = 0; j < 61; ++j) {
      EXPECT_GE(p(i, j), 0.0);
      rowSum += p(i, j);
    }
    EXPECT_NEAR(rowSum, 1.0, 1e-9);
  }
  for (int i = 0; i < 61; ++i)
    for (int j = i + 1; j < 61; ++j)
      EXPECT_NEAR(pi[i] * p(i, j), pi[j] * p(j, i), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CtmcInvariants,
    ::testing::Values(CtmcCase{0.5, 0.01, 0.05, 1}, CtmcCase{1.0, 0.5, 0.2, 2},
                      CtmcCase{2.0, 1.0, 0.5, 3}, CtmcCase{4.0, 3.0, 1.0, 4},
                      CtmcCase{8.0, 10.0, 2.0, 5}, CtmcCase{2.0, 0.0, 0.3, 6},
                      CtmcCase{1.5, 0.2, 10.0, 7},
                      CtmcCase{3.0, 2.0, 1e-6, 8}));

// ---------- likelihood invariances ----------

struct LikFixture {
  seqio::CodonAlignment ca;
  seqio::SitePatterns sp;
  std::vector<double> pi;
  tree::Tree tree;
};

LikFixture makeLikFixture(unsigned seed, int species = 5, int codons = 20) {
  sim::Rng rng(seed);
  auto tree = sim::yuleTree(species, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto piGen = sim::randomCodonFrequencies(61, 5, rng);
  const auto simOut =
      sim::evolveBranchSite(gc(), tree, sim::defaultSimulationParams(),
                            model::Hypothesis::H1, codons, piGen, rng);
  LikFixture f;
  f.ca = seqio::encodeCodons(simOut.alignment, gc());
  f.sp = seqio::compressPatterns(f.ca);
  f.pi = model::estimateCodonFrequencies(f.ca, model::CodonFrequencyModel::F3x4);
  f.tree = std::move(tree);
  return f;
}

class LikelihoodInvariance : public ::testing::TestWithParam<unsigned> {};

TEST_P(LikelihoodInvariance, SequenceOrderIrrelevant) {
  // Permuting the rows of the alignment must not change lnL (leaves are
  // matched by name, not by index).
  const auto f = makeLikFixture(GetParam());
  seqio::CodonAlignment shuffled = f.ca;
  std::reverse(shuffled.names.begin(), shuffled.names.end());
  std::reverse(shuffled.states.begin(), shuffled.states.end());
  const auto spShuffled = seqio::compressPatterns(shuffled);

  const auto params = sim::defaultSimulationParams();
  lik::BranchSiteLikelihood a(f.ca, f.sp, f.pi, f.tree, model::Hypothesis::H1,
                              lik::slimOptions());
  lik::BranchSiteLikelihood b(shuffled, spShuffled, f.pi, f.tree,
                              model::Hypothesis::H1, lik::slimOptions());
  EXPECT_NEAR(a.logLikelihood(params), b.logLikelihood(params), 1e-9);
}

TEST_P(LikelihoodInvariance, PatternCompressionIrrelevant) {
  // Evaluating with one pattern per site (no dedup) must give the same lnL
  // as the compressed evaluation.
  const auto f = makeLikFixture(GetParam());
  seqio::SitePatterns uncompressed;
  const std::size_t nsites = f.ca.numSites();
  for (std::size_t i = 0; i < nsites; ++i) {
    std::vector<int> col(f.ca.numSequences());
    for (std::size_t s = 0; s < f.ca.numSequences(); ++s)
      col[s] = f.ca.states[s][i];
    uncompressed.patterns.push_back(std::move(col));
    uncompressed.weights.push_back(1.0);
    uncompressed.siteToPattern.push_back(static_cast<int>(i));
  }

  const auto params = sim::defaultSimulationParams();
  lik::BranchSiteLikelihood a(f.ca, f.sp, f.pi, f.tree, model::Hypothesis::H1,
                              lik::slimOptions());
  lik::BranchSiteLikelihood b(f.ca, uncompressed, f.pi, f.tree,
                              model::Hypothesis::H1, lik::slimOptions());
  const double la = a.logLikelihood(params);
  EXPECT_NEAR(la, b.logLikelihood(params), 1e-9 * std::fabs(la));
}

TEST_P(LikelihoodInvariance, LnLAlwaysNegative) {
  // Site likelihoods are probabilities: lnL < 0 for any parameter draw.
  const auto f = makeLikFixture(GetParam());
  sim::Rng rng(GetParam() * 7 + 1);
  lik::BranchSiteLikelihood eval(f.ca, f.sp, f.pi, f.tree,
                                 model::Hypothesis::H1, lik::slimOptions());
  for (int draw = 0; draw < 5; ++draw) {
    model::BranchSiteParams p;
    p.kappa = rng.uniform(0.5, 8.0);
    p.omega0 = rng.uniform(0.01, 0.95);
    p.omega2 = rng.uniform(1.0, 9.0);
    p.p0 = rng.uniform(0.05, 0.6);
    p.p1 = rng.uniform(0.05, 1.0 - p.p0 - 0.05);
    const double lnL = eval.logLikelihood(p);
    EXPECT_TRUE(std::isfinite(lnL));
    EXPECT_LT(lnL, 0.0);
  }
}

TEST_P(LikelihoodInvariance, ForegroundMarkInertForHomogeneousMixtures) {
  // For branch-homogeneous mixtures (site models: same omega on background
  // and foreground in every class) the mark placement must not change lnL.
  // For model A it must: even under H0, class 2a has omega0 on background
  // vs omega2 = 1 on the foreground branch (Table I).
  const auto f = makeLikFixture(GetParam());
  auto params = sim::defaultSimulationParams();

  const auto branches = f.tree.branches();
  tree::Tree treeA = f.tree;
  tree::Tree treeB = f.tree;
  treeA.setForegroundBranch(branches.front());
  treeB.setForegroundBranch(branches.back());

  model::SiteModelParams siteParams;
  const auto m2a = model::buildM2aSpec(gc(), f.pi, siteParams);
  lik::BranchSiteLikelihood sa(f.ca, f.sp, f.pi, treeA, model::Hypothesis::H1,
                               lik::slimOptions());
  lik::BranchSiteLikelihood sb(f.ca, f.sp, f.pi, treeB, model::Hypothesis::H1,
                               lik::slimOptions());
  EXPECT_NEAR(sa.logLikelihood(m2a), sb.logLikelihood(m2a), 1e-9);

  // Model A (branch-heterogeneous): the mark matters, under H0 and H1.
  lik::BranchSiteLikelihood h0a(f.ca, f.sp, f.pi, treeA, model::Hypothesis::H0,
                                lik::slimOptions());
  lik::BranchSiteLikelihood h0b(f.ca, f.sp, f.pi, treeB, model::Hypothesis::H0,
                                lik::slimOptions());
  EXPECT_NE(h0a.logLikelihood(params), h0b.logLikelihood(params));
  params.omega2 = 6.0;
  lik::BranchSiteLikelihood h1a(f.ca, f.sp, f.pi, treeA, model::Hypothesis::H1,
                                lik::slimOptions());
  lik::BranchSiteLikelihood h1b(f.ca, f.sp, f.pi, treeB, model::Hypothesis::H1,
                                lik::slimOptions());
  EXPECT_NE(h1a.logLikelihood(params), h1b.logLikelihood(params));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikelihoodInvariance,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace slim
