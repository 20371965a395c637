// Tests for the generic omega-class mixtures and the M1a/M2a site models —
// the "further ML-based evolutionary models" extension of the paper's
// conclusion, running through the same likelihood engine and the same fit
// driver as model A (ModelSpec kind `site`: H0 = M1a, H1 = M2a).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/analysis.hpp"
#include "expm/pade.hpp"
#include "model/codon_model.hpp"
#include "model/site_mixture.hpp"
#include "sim/datasets.hpp"
#include "test_util.hpp"

namespace slim {
namespace {

using model::MixtureSpec;
using model::SiteModelParams;

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

// ---------- spec construction ----------

TEST(MixtureSpec, M1aStructure) {
  const auto pi = testutil::randomFrequencies(61, 1);
  SiteModelParams p;
  p.p0 = 0.7;
  const auto spec = model::buildM1aSpec(gc(), pi, p);
  ASSERT_EQ(spec.numClasses(), 2);
  ASSERT_EQ(spec.numOmegas(), 2);
  EXPECT_DOUBLE_EQ(spec.classes[0].proportion, 0.7);
  EXPECT_DOUBLE_EQ(spec.classes[1].proportion, 0.3);
  EXPECT_DOUBLE_EQ(spec.omegas[1], 1.0);
  EXPECT_TRUE(spec.branchHomogeneous());
}

TEST(MixtureSpec, M2aStructure) {
  const auto pi = testutil::randomFrequencies(61, 2);
  SiteModelParams p;
  p.p0 = 0.5;
  p.p1 = 0.3;
  p.omega2 = 3.0;
  const auto spec = model::buildM2aSpec(gc(), pi, p);
  ASSERT_EQ(spec.numClasses(), 3);
  EXPECT_NEAR(spec.classes[2].proportion, 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(spec.omegas[2], 3.0);
  EXPECT_TRUE(spec.branchHomogeneous());
}

TEST(MixtureSpec, ModelAIsBranchHeterogeneous) {
  const auto pi = testutil::randomFrequencies(61, 3);
  const auto spec = model::buildModelASpec(gc(), pi, model::BranchSiteParams{},
                                           model::Hypothesis::H1);
  ASSERT_EQ(spec.numClasses(), 4);
  ASSERT_EQ(spec.numOmegas(), 3);
  EXPECT_FALSE(spec.branchHomogeneous());
  // Classes 2a/2b differ between background and foreground.
  EXPECT_NE(spec.classes[2].omegaBackground(), spec.classes[2].omegaForeground());
}

TEST(MixtureSpec, ScaleNormalizesWeightedBackgroundRate) {
  const auto pi = testutil::randomFrequencies(61, 4);
  SiteModelParams p;
  const auto spec = model::buildM2aSpec(gc(), pi, p);
  linalg::Matrix q(61, 61);
  double weighted = 0;
  for (const auto& c : spec.classes) {
    model::buildRateMatrix(spec.scaledS[c.omegaBackground()], pi, q);
    weighted += c.proportion * model::expectedRate(q, pi);
  }
  EXPECT_NEAR(weighted, 1.0, 1e-10);
}

TEST(MixtureSpec, ValidationCatchesBadSpecs) {
  const auto pi = testutil::randomFrequencies(61, 5);
  auto spec = model::buildM1aSpec(gc(), pi, SiteModelParams{});
  spec.classes[0].proportion = 0.9;  // no longer sums to 1
  EXPECT_THROW(spec.validate(61), std::invalid_argument);

  auto spec2 = model::buildM1aSpec(gc(), pi, SiteModelParams{});
  spec2.classes[0].omega = {7};  // out of range
  EXPECT_THROW(spec2.validate(61), std::invalid_argument);

  EXPECT_THROW(model::buildM1aSpec(gc(), pi, {2.0, 1.5, 2.0, 0.5, 0.4}),
               std::invalid_argument);  // omega0 >= 1
  EXPECT_THROW(model::buildM2aSpec(gc(), pi, {2.0, 0.1, 0.5, 0.5, 0.4}),
               std::invalid_argument);  // omega2 < 1
}

// ---------- generic evaluator ----------

struct Fixture {
  seqio::CodonAlignment ca;
  seqio::SitePatterns sp;
  std::vector<double> pi;
  tree::Tree tree;
};

Fixture makeFixture(int numCodons = 25) {
  sim::Rng rng(314);
  auto tree = sim::yuleTree(5, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto piGen = sim::randomCodonFrequencies(61, 5, rng);
  const auto simOut =
      sim::evolveBranchSite(gc(), tree, sim::defaultSimulationParams(),
                            model::Hypothesis::H1, numCodons, piGen, rng);
  Fixture f;
  f.ca = seqio::encodeCodons(simOut.alignment, gc());
  f.sp = seqio::compressPatterns(f.ca);
  f.pi = model::estimateCodonFrequencies(f.ca, model::CodonFrequencyModel::F3x4);
  f.tree = std::move(tree);
  return f;
}

TEST(GenericEvaluator, ModelASpecMatchesParamsPath) {
  const auto f = makeFixture();
  lik::BranchSiteLikelihood eval(f.ca, f.sp, f.pi, f.tree,
                                 model::Hypothesis::H1, lik::slimOptions());
  model::BranchSiteParams params;
  params.kappa = 2.1;
  params.omega2 = 3.3;
  const double viaParams = eval.logLikelihood(params);
  const double viaSpec = eval.logLikelihood(
      model::buildModelASpec(gc(), f.pi, params, model::Hypothesis::H1));
  EXPECT_DOUBLE_EQ(viaParams, viaSpec);
}

TEST(GenericEvaluator, M2aApproachesM1aAsThirdClassVanishes) {
  const auto f = makeFixture();
  lik::BranchSiteLikelihood eval(f.ca, f.sp, f.pi, f.tree,
                                 model::Hypothesis::H1, lik::slimOptions());
  SiteModelParams m1a;
  m1a.p0 = 0.6;
  const double lnLM1a = eval.logLikelihood(model::buildM1aSpec(gc(), f.pi, m1a));

  SiteModelParams m2a = m1a;
  m2a.p0 = 0.6 * (1 - 1e-9);
  m2a.p1 = 0.4 * (1 - 1e-9);
  m2a.omega2 = 2.0;
  const double lnLM2a = eval.logLikelihood(model::buildM2aSpec(gc(), f.pi, m2a));
  EXPECT_NEAR(lnLM1a, lnLM2a, 1e-5);
}

TEST(GenericEvaluator, M1aMatchesBruteForce) {
  // Independent reference: Pade transition matrices + plain recursion.
  const auto f = makeFixture(8);
  SiteModelParams p;
  p.kappa = 1.8;
  p.omega0 = 0.2;
  p.p0 = 0.55;
  const auto spec = model::buildM1aSpec(gc(), f.pi, p);

  lik::BranchSiteLikelihood eval(f.ca, f.sp, f.pi, f.tree,
                                 model::Hypothesis::H1, lik::slimOptions());
  const double got = eval.logLikelihood(spec);

  const int n = 61;
  double lnL = 0;
  for (std::size_t h = 0; h < f.sp.numPatterns(); ++h) {
    double fh = 0;
    for (int m = 0; m < spec.numClasses(); ++m) {
      linalg::Matrix q(n, n);
      model::buildRateMatrix(spec.scaledS[spec.classes[m].omegaBackground()],
                             f.pi, q);
      std::function<std::vector<double>(int)> partial =
          [&](int node) -> std::vector<double> {
        if (f.tree.node(node).isLeaf()) {
          std::vector<double> v(n, 0.0);
          int row = -1;
          for (std::size_t s = 0; s < f.ca.names.size(); ++s)
            if (f.ca.names[s] == f.tree.node(node).label)
              row = static_cast<int>(s);
          const int state = f.sp.patterns[h][row];
          if (state == seqio::kMissingState)
            v.assign(n, 1.0);
          else
            v[state] = 1.0;
          return v;
        }
        std::vector<double> v(n, 1.0);
        for (int child : f.tree.node(node).children) {
          const auto w = partial(child);
          linalg::Matrix qt = q;
          for (std::size_t x = 0; x < qt.size(); ++x)
            qt.data()[x] *= f.tree.branchLength(child);
          const auto pMat = expm::expmPade(qt);
          for (int i = 0; i < n; ++i) {
            double s = 0;
            for (int j = 0; j < n; ++j) s += pMat(i, j) * w[j];
            v[i] *= s;
          }
        }
        return v;
      };
      const auto rootV = partial(f.tree.root());
      double fmh = 0;
      for (int i = 0; i < n; ++i) fmh += f.pi[i] * rootV[i];
      fh += spec.classes[m].proportion * fmh;
    }
    lnL += f.sp.weights[h] * std::log(fh);
  }
  EXPECT_NEAR(got, lnL, 1e-8 * std::fabs(lnL));
}

// ---------- generic evolver ----------

TEST(EvolveMixture, HomogeneousSpecNeedsNoMark) {
  sim::Rng rng(99);
  const auto tree = sim::yuleTree(4, rng);  // unmarked
  const auto pi = sim::randomCodonFrequencies(61, 5, rng);
  const auto spec = model::buildM2aSpec(gc(), pi, SiteModelParams{});
  const auto out = sim::evolveMixture(gc(), tree, spec, 20, pi, rng);
  EXPECT_EQ(out.alignment.numSequences(), 4u);
  EXPECT_EQ(out.siteClasses.size(), 20u);
}

TEST(EvolveMixture, HeterogeneousSpecRequiresMark) {
  sim::Rng rng(101);
  const auto tree = sim::yuleTree(4, rng);  // unmarked
  const auto pi = sim::randomCodonFrequencies(61, 5, rng);
  const auto spec = model::buildModelASpec(gc(), pi, model::BranchSiteParams{},
                                           model::Hypothesis::H1);
  EXPECT_THROW(sim::evolveMixture(gc(), tree, spec, 5, pi, rng),
               std::invalid_argument);
}

// ---------- the M1a-vs-M2a analysis ----------

/// M1a/M2a fit options with the starting proportions these tests were
/// written against (p0/p1 = 0.5/0.4; FitOptions defaults to 0.45/0.45).
core::FitOptions siteOptions(int maxIterations) {
  core::FitOptions opts;
  opts.modelSpec = model::ModelSpec::site();
  opts.initialParams.p0 = 0.5;
  opts.initialParams.p1 = 0.4;
  opts.bfgs.maxIterations = maxIterations;
  return opts;
}

TEST(SiteModelFit, FitRunsAndRespectsNesting) {
  const auto f = makeFixture(30);
  core::BranchSiteAnalysis analysis(f.ca, f.tree, core::EngineKind::Slim,
                                    siteOptions(8));
  const auto m1a = analysis.fit(model::Hypothesis::H0);
  const auto m2a = analysis.fit(model::Hypothesis::H1);
  EXPECT_TRUE(std::isfinite(m1a.lnL));
  EXPECT_TRUE(std::isfinite(m2a.lnL));
  EXPECT_GT(m1a.params.omega0, 0.0);
  EXPECT_LT(m1a.params.omega0, 1.0);
  EXPECT_NEAR(m1a.params.p0 + m1a.params.p1, 1.0, 1e-12);
  EXPECT_GE(m2a.params.omega2, 1.0);
  // M1a is nested in M2a; allow capped-optimizer noise.
  EXPECT_GE(m2a.lnL, m1a.lnL - 0.05);
}

TEST(SiteModelFit, WorksOnUnmarkedTree) {
  auto f = makeFixture(15);
  tree::Tree bare = tree::Tree::parseNewick(f.tree.toNewick(/*marks=*/false));
  core::BranchSiteAnalysis analysis(f.ca, bare, core::EngineKind::Slim,
                                    siteOptions(2));
  EXPECT_NO_THROW(analysis.fit(model::Hypothesis::H0));
}

TEST(SiteModelFit, DetectsPervasiveSelection) {
  // Simulate data where 40% of sites evolve at omega = 8 on all branches:
  // the M1a-vs-M2a LRT (df = 2) should fire.
  sim::Rng rng(555);
  auto tree = sim::yuleTree(6, rng);
  const auto piGen = sim::randomCodonFrequencies(61, 5, rng);
  SiteModelParams truth;
  truth.kappa = 2.0;
  truth.omega0 = 0.05;
  truth.omega2 = 8.0;
  truth.p0 = 0.4;
  truth.p1 = 0.2;
  const auto spec = model::buildM2aSpec(gc(), piGen, truth);
  const auto simOut = sim::evolveMixture(gc(), tree, spec, 100, piGen, rng);
  const auto ca = seqio::encodeCodons(simOut.alignment, gc());

  core::BranchSiteAnalysis analysis(ca, tree, core::EngineKind::Slim,
                                    siteOptions(20));
  const auto test = analysis.run();
  EXPECT_DOUBLE_EQ(test.lrt.df, 2.0);
  EXPECT_GT(test.lrt.statistic, 5.99)  // 5% critical value for df = 2
      << "M1a lnL=" << test.h0.lnL << " M2a lnL=" << test.h1.lnL;
  EXPECT_GT(test.h1.params.omega2, 1.5);
  // Posteriors: 3 classes, expanded to all 100 sites.
  EXPECT_EQ(test.posteriors.post.size(), 3u);
  EXPECT_EQ(test.posteriors.positiveSelectionBySite.size(), 100u);
}

}  // namespace
}  // namespace slim
