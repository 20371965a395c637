// The derivative-aware objective API: analytic branch-length gradients and
// parallel multi-point (finite-difference) evaluation.
//
//  * correctness: analytic d lnL / d t matches central finite differences at
//    random feasible points, under both hypothesis parameterizations and
//    across engine presets / thread counts;
//  * determinism: fd's probe fan-out returns bit-identical gradients to the
//    serial fd path for every worker count;
//  * end-to-end: full H0/H1 fits reach the same maximum under both
//    GradientModes, with `analytic` cutting likelihood evaluations per
//    converged fit by >= 3x versus `fd` (the whole point of the API).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/analysis.hpp"
#include "core/objective.hpp"
#include "model/frequencies.hpp"
#include "sim/datasets.hpp"
#include "sim/evolver.hpp"
#include "sim/random_tree.hpp"
#include "sim/rng.hpp"

namespace slim {
namespace {

using core::GradientMode;
using model::BranchSiteParams;
using model::Hypothesis;

struct SimData {
  seqio::CodonAlignment codons;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

SimData makeData(int numSpecies, int numCodons, std::uint64_t seed,
                 const BranchSiteParams& truth = sim::defaultSimulationParams()) {
  sim::Rng rng(seed);
  auto tree = sim::yuleTree(numSpecies, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto simPi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut = sim::evolveBranchSite(gc, tree, truth, Hypothesis::H1,
                                            numCodons, simPi, rng);
  SimData d{seqio::encodeCodons(simOut.alignment, gc), {}, {}, tree};
  d.patterns = seqio::compressPatterns(d.codons);
  d.pi = model::estimateCodonFrequencies(d.codons,
                                         model::CodonFrequencyModel::F3x4);
  return d;
}

BranchSiteParams randomFeasibleParams(sim::Rng& rng) {
  BranchSiteParams p;
  p.kappa = rng.uniform(1.2, 4.0);
  p.omega0 = rng.uniform(0.05, 0.8);
  p.omega2 = rng.uniform(1.2, 6.0);
  p.p0 = rng.uniform(0.2, 0.5);
  p.p1 = rng.uniform(0.2, 0.4);
  return p;
}

// ---------- analytic vs central finite differences ----------

TEST(AnalyticGradient, MatchesCentralFiniteDifferences) {
  const auto d = makeData(7, 40, 7);
  sim::Rng rng(99);
  for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
    lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree, h,
                                   lik::slimOptions());
    const int numBranches = eval.numBranches();
    for (int trial = 0; trial < 3; ++trial) {
      const BranchSiteParams p = randomFeasibleParams(rng);
      for (int k = 0; k < numBranches; ++k)
        eval.setBranchLength(k, rng.uniform(0.01, 0.6));

      std::vector<double> grad(numBranches);
      const double lnL = eval.logLikelihoodGradientBranches(p, grad);
      ASSERT_TRUE(std::isfinite(lnL));
      // The gradient call also returns the exact likelihood.
      EXPECT_EQ(lnL, eval.logLikelihood(p));

      for (int k = 0; k < numBranches; ++k) {
        const double t = eval.branchLength(k);
        const double step = 1e-6 * std::max(t, 1.0);
        eval.setBranchLength(k, t + step);
        const double fPlus = eval.logLikelihood(p);
        eval.setBranchLength(k, t - step);
        const double fMinus = eval.logLikelihood(p);
        eval.setBranchLength(k, t);
        const double fd = (fPlus - fMinus) / (2.0 * step);
        EXPECT_NEAR(grad[k], fd, 1e-6 * std::max(1.0, std::fabs(fd)))
            << model::hypothesisName(h) << " trial " << trial << " branch "
            << k;
      }
    }
  }
}

TEST(AnalyticGradient, ReuseOfLastEvaluationIsExact) {
  const auto d = makeData(6, 30, 11);
  lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                 Hypothesis::H1, lik::slimParallelOptions());
  BranchSiteParams p;
  const int numBranches = eval.numBranches();
  std::vector<double> fresh(numBranches), reused(numBranches);
  const double lnLFresh = eval.logLikelihoodGradientBranches(p, fresh);
  const double lnLEval = eval.logLikelihood(p);
  const double lnLReused = eval.gradientBranchesAtLastEvaluation(reused);
  EXPECT_EQ(lnLFresh, lnLEval);
  EXPECT_EQ(lnLFresh, lnLReused);
  EXPECT_EQ(fresh, reused);
  // The reuse path costs a sweep but no evaluation.
  EXPECT_EQ(eval.counters().gradientSweeps, 2);
  EXPECT_EQ(eval.counters().evaluations, 2);  // fresh gradient + logLikelihood
}

TEST(AnalyticGradient, BitIdenticalAcrossThreadCountsAndEngines) {
  const auto d = makeData(7, 40, 13);
  const BranchSiteParams p;
  std::vector<double> reference;
  double lnLReference = 0;
  for (int threads : {1, 2, 8}) {
    for (int blockSize : {0, 7, 64}) {
      auto options = lik::slimParallelOptions();
      options.numThreads = threads;
      options.blockSize = blockSize;
      lik::BranchSiteLikelihood eval(d.codons, d.patterns, d.pi, d.tree,
                                     Hypothesis::H1, options);
      std::vector<double> grad(eval.numBranches());
      const double lnL = eval.logLikelihoodGradientBranches(p, grad);
      if (reference.empty()) {
        reference = grad;
        lnLReference = lnL;
      } else {
        EXPECT_EQ(lnL, lnLReference) << threads << "x" << blockSize;
        EXPECT_EQ(grad, reference) << threads << "x" << blockSize;
      }
    }
  }
}

// ---------- fd probe fan-out bit-identity ----------

TEST(FdProbeFanOut, BitIdenticalToSerialForEveryWorkerCount) {
  const auto d = makeData(7, 40, 17);
  const BranchSiteParams p;
  auto likOptions = lik::slimParallelOptions();
  likOptions.numThreads = 1;
  const auto ctx = core::AnalysisContext::create(
      d.codons, d.tree, core::EngineKind::SlimParallel);

  // Serial fd reference on a plain evaluator, over the branch-site H1
  // layout (every coordinate finite-differenced).
  lik::BranchSiteLikelihood refEval(ctx->alignment(), ctx->patterns(),
                                    ctx->pi(), ctx->tree(), Hypothesis::H1,
                                    likOptions);
  const int numBranches = refEval.numBranches();
  const core::ParameterLayout layout(model::ModelSpec::branchSite(),
                                     Hypothesis::H1, numBranches);
  std::vector<double> lengths(numBranches);
  for (int k = 0; k < numBranches; ++k) lengths[k] = refEval.branchLength(k);
  const std::vector<double> x0 = layout.pack({p, {}}, lengths);

  core::LikelihoodObjective serial(refEval, *ctx, layout, likOptions,
                                   GradientMode::FiniteDiff,
                                   core::ParallelPolicy::Auto, 1);
  const double f0 = serial.value(x0);
  std::vector<double> refGrad(x0.size());
  for (bool central : {false, true}) {
    const auto refResult =
        serial.valueAndGradient(x0, refGrad, {1e-7, central, f0});
    EXPECT_EQ(refResult.analyticCoordinates, 0);

    for (int workers : {1, 2, 8}) {
      lik::BranchSiteLikelihood eval(ctx->alignment(), ctx->patterns(),
                                     ctx->pi(), ctx->tree(), Hypothesis::H1,
                                     likOptions);
      core::LikelihoodObjective fanned(eval, *ctx, layout, likOptions,
                                       GradientMode::FiniteDiff,
                                       core::ParallelPolicy::TaskLevel,
                                       workers);
      EXPECT_EQ(fanned.value(x0), f0) << workers;
      std::vector<double> grad(x0.size());
      fanned.valueAndGradient(x0, grad, {1e-7, central, f0});
      EXPECT_EQ(grad, refGrad) << "workers=" << workers
                               << " central=" << central;
      if (workers > 1) {
        EXPECT_GT(fanned.poolSize(), 0) << workers;
      } else {
        EXPECT_EQ(fanned.poolSize(), 0);
      }
    }
  }
}

TEST(FdProbeFanOut, FullFitsBitIdenticalToSerialFd) {
  const auto d = makeData(6, 30, 19);
  core::FitOptions fd;
  fd.bfgs.maxIterations = 8;
  fd.tuning.cachePropagators = 1;
  fd.tuning.gradient = GradientMode::FiniteDiff;
  fd.tuning.numThreads = 1;
  core::BranchSiteAnalysis serial(d.codons, d.tree, core::EngineKind::Slim, fd);
  const auto ref = serial.fit(Hypothesis::H1);

  for (int threads : {1, 2, 8}) {
    core::FitOptions par = fd;
    par.tuning.numThreads = threads;
    par.tuning.policy = core::ParallelPolicy::TaskLevel;
    core::BranchSiteAnalysis fanned(d.codons, d.tree, core::EngineKind::Slim,
                                    par);
    const auto r = fanned.fit(Hypothesis::H1);
    EXPECT_EQ(r.lnL, ref.lnL) << threads;
    EXPECT_EQ(r.branchLengths, ref.branchLengths) << threads;
    EXPECT_EQ(r.iterations, ref.iterations) << threads;
    EXPECT_EQ(r.functionEvaluations, ref.functionEvaluations) << threads;
    EXPECT_EQ(r.gradientEvaluations, ref.gradientEvaluations) << threads;
    EXPECT_EQ(r.counters.evaluations, ref.counters.evaluations) << threads;
  }
}

// ---------- end-to-end: the modes agree, analytic is cheaper ----------

TEST(GradientModes, FitsAgreeAndAnalyticCutsEvaluations) {
#ifdef SLIM_SANITIZED
  // Four full fits run to tight convergence: tens of seconds natively but
  // tens of minutes under ASan/TSan, and entirely single-threaded (numThreads = 1, no probe
  // fan-out), so sanitized runs gain no coverage from it.  The threaded
  // gradient paths are covered by the AnalyticGradient and FdProbeFanOut
  // suites above.
  GTEST_SKIP() << "single-threaded convergence marathon skipped under "
                  "sanitizers";
#endif
  // Enough branches that the per-branch FD axis dominates (the regime the
  // analytic gradient exists for): 9 species -> 16 branches, H1 dim 21.
  // Strong simulated selection keeps the H1 maximum in the interior and
  // well-conditioned, so independently-stopped optimizers can actually meet
  // at the 1e-8 bar (a near-boundary optimum has flat directions both modes
  // crawl along, stopping wherever their tolerance catches them).
  BranchSiteParams truth;
  truth.kappa = 2.0;
  truth.omega0 = 0.05;
  truth.omega2 = 8.0;
  truth.p0 = 0.35;
  truth.p1 = 0.35;
  const auto d = makeData(9, 30, 23, truth);

  core::FitOptions base;
  // Tight enough that every mode runs to the numerical optimum (not to an
  // early f-tolerance stop), so the final lnL values are comparable
  // at 1e-8; central differences keep the FD modes accurate near it.
  base.bfgs.maxIterations = 400;
  base.bfgs.gradTolerance = 1e-9;
  base.bfgs.fTolerance = 1e-13;
  // Central differences at the ~eps^(1/3) step: the FD noise floor must sit
  // below the 1e-8 agreement bar, or the FD modes stall short of it.
  base.bfgs.centralDifferences = true;
  base.bfgs.fdStep = 1e-5;
  base.tuning.cachePropagators = 1;
  base.tuning.numThreads = 1;

  for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
    core::FitResult results[2];
    const GradientMode modes[2] = {GradientMode::FiniteDiff,
                                   GradientMode::Analytic};
    for (int i = 0; i < 2; ++i) {
      core::FitOptions opts = base;
      opts.tuning.gradient = modes[i];
      core::BranchSiteAnalysis analysis(d.codons, d.tree,
                                        core::EngineKind::Slim, opts);
      results[i] = analysis.fit(h);
      EXPECT_TRUE(results[i].converged)
          << model::hypothesisName(h) << " " << core::gradientModeName(modes[i]);
    }
    // analytic lands on fd's maximum.
    EXPECT_NEAR(results[0].lnL, results[1].lnL, 1e-8)
        << model::hypothesisName(h);

    if (h == Hypothesis::H1) {
      // The acceptance bar: analytic cuts likelihood evaluations per
      // converged H1 fit by >= 3x (branch derivatives come from sweeps).
      EXPECT_GE(results[0].counters.evaluations,
                3 * results[1].counters.evaluations)
          << "fd=" << results[0].counters.evaluations
          << " analytic=" << results[1].counters.evaluations;
      EXPECT_GT(results[1].counters.gradientSweeps, 0);
      EXPECT_EQ(results[0].counters.gradientSweeps, 0);
    }
  }
}

TEST(GradientModes, SiteModelFitsAgreeAcrossModes) {
  const auto d = makeData(6, 30, 29);
  core::FitOptions base;
  base.modelSpec = model::ModelSpec::site();
  base.initialParams.p0 = 0.5;  // the M1a/M2a starting proportions
  base.initialParams.p1 = 0.4;
  base.bfgs.maxIterations = 80;

  core::FitResult fd, analytic;
  {
    core::FitOptions opts = base;
    opts.tuning.gradient = GradientMode::FiniteDiff;
    core::BranchSiteAnalysis analysis(d.codons, d.tree, core::EngineKind::Slim,
                                      opts);
    fd = analysis.fit(Hypothesis::H1);  // M2a
  }
  {
    core::FitOptions opts = base;
    opts.tuning.gradient = GradientMode::Analytic;
    core::BranchSiteAnalysis analysis(d.codons, d.tree, core::EngineKind::Slim,
                                      opts);
    analytic = analysis.fit(Hypothesis::H1);
  }
  EXPECT_NEAR(fd.lnL, analytic.lnL, 1e-6 * (1.0 + std::fabs(fd.lnL)));
  EXPECT_LT(analytic.gradientEvaluations, fd.gradientEvaluations);
}

}  // namespace
}  // namespace slim
