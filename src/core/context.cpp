#include "core/context.hpp"

#include <chrono>

#include "core/objective.hpp"
#include "support/require.hpp"

namespace slim::core {

using model::Hypothesis;

AnalysisContext::AnalysisContext(seqio::CodonAlignment alignment,
                                 std::shared_ptr<const tree::Tree> tree,
                                 EngineKind engine, FitOptions options)
    : alignment_(std::move(alignment)),
      patterns_(seqio::compressPatterns(alignment_)),
      pi_(model::estimateCodonFrequencies(alignment_, options.frequencyModel)),
      tree_(std::move(tree)),
      engine_(engine),
      options_(std::move(options)) {
  SLIM_REQUIRE(tree_ != nullptr, "AnalysisContext: null tree");
}

std::shared_ptr<const AnalysisContext> AnalysisContext::create(
    const seqio::CodonAlignment& alignment, const tree::Tree& tree,
    EngineKind engine, FitOptions options) {
  return std::make_shared<const AnalysisContext>(
      alignment, std::make_shared<const tree::Tree>(tree), engine,
      std::move(options));
}

std::shared_ptr<const AnalysisContext> AnalysisContext::create(
    seqio::CodonAlignment alignment, std::shared_ptr<const tree::Tree> tree,
    EngineKind engine, FitOptions options) {
  return std::make_shared<const AnalysisContext>(
      std::move(alignment), std::move(tree), engine, std::move(options));
}

FitResult fitHypothesis(const AnalysisContext& context, Hypothesis hypothesis,
                        const FitOptions& fitOptions,
                        const lik::LikelihoodOptions& likOptions,
                        std::shared_ptr<lik::PropagatorCacheShard> shard,
                        const FitCheckpointHooks* checkpoint) {
  const auto t0 = std::chrono::steady_clock::now();

  lik::BranchSiteLikelihood eval(context.alignment(), context.patterns(),
                                 context.pi(), context.tree(), hypothesis,
                                 likOptions, std::move(shard));
  if (!fitOptions.useTreeBranchLengths)
    eval.setAllBranchLengths(fitOptions.initialBranchLength);

  const int numBranches = eval.numBranches();
  const ParameterLayout layout(fitOptions.modelSpec, hypothesis, numBranches);
  std::vector<double> startLengths(numBranches);
  for (int k = 0; k < numBranches; ++k) startLengths[k] = eval.branchLength(k);
  const std::vector<double> x0 = layout.start(
      fitOptions.initialParams, std::move(startLengths),
      fitOptions.startJitterSeed);

  // The derivative-aware objective: value() and every FD probe on the fit's
  // evaluator, whose pool holds the fit's threads (a task-level scheduler
  // above this fit passes numThreads = 1); analytic branch derivatives under
  // GradientMode::Analytic.
  LikelihoodObjective objective(eval, context, layout,
                                fitOptions.tuning.gradient);

  // Checkpoint plumbing: the starting point is still packed above even on a
  // resume — its length fixes the optimization dimension (which the restored
  // state must match) — but the driver then restores the snapshot instead of
  // evaluating at x0, continuing the recorded trajectory bit for bit.
  const opt::BfgsState* resumeState =
      checkpoint && checkpoint->resumeFrom ? &*checkpoint->resumeFrom
                                           : nullptr;
  const auto bfgsResult =
      opt::minimizeBfgs(objective, x0, fitOptions.bfgs,
                        checkpoint ? checkpoint->sink : opt::BfgsCheckpointSink{},
                        resumeState);

  FitResult r;
  r.hypothesis = hypothesis;
  r.modelKind = layout.kind();
  r.lnL = -bfgsResult.value;
  ModelPoint best = layout.unpack(bfgsResult.x);
  r.params = best.params;
  r.classOmegas = std::move(best.classOmegas);
  r.branchLengths.resize(numBranches);
  for (int k = 0; k < numBranches; ++k)
    r.branchLengths[k] = layout.branchLength(bfgsResult.x, k);
  r.iterations = bfgsResult.iterations;
  r.functionEvaluations = bfgsResult.functionEvaluations;
  r.gradientEvaluations = bfgsResult.gradientEvaluations;
  r.gradientMode = fitOptions.tuning.gradient;
  r.simd = eval.simdLevel();
  r.backend = eval.backendKind();
  r.converged = bfgsResult.converged;
  r.cancelled = bfgsResult.cancelled;
  r.message = bfgsResult.message;
  r.counters = eval.counters();
  if (resumeState != nullptr) {
    r.resumedFrom = checkpoint->resumedFromPath;
    r.iterationsReplayed = resumeState->iterations;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

lik::SiteClassPosteriors siteScanAtFit(
    const AnalysisContext& context, const FitResult& h1Fit,
    const lik::LikelihoodOptions& likOptions,
    std::shared_ptr<lik::PropagatorCacheShard> shard,
    lik::EvalCounters& scanCounters) {
  lik::BranchSiteLikelihood eval(context.alignment(), context.patterns(),
                                 context.pi(), context.tree(),
                                 h1Fit.hypothesis, likOptions,
                                 std::move(shard));
  // The fit may come from a checkpoint file rather than this process (the
  // parser cannot know the tree's branch count); a short vector here must
  // be a keyed error, not an out-of-bounds read.
  SLIM_REQUIRE(h1Fit.branchLengths.size() ==
                   static_cast<std::size_t>(eval.numBranches()),
               "site scan: fit has " +
                   std::to_string(h1Fit.branchLengths.size()) +
                   " branch lengths but the tree has " +
                   std::to_string(eval.numBranches()) +
                   " branches (stale or corrupted checkpoint?)");
  for (int k = 0; k < eval.numBranches(); ++k)
    eval.setBranchLength(k, h1Fit.branchLengths[k]);
  SLIM_REQUIRE(h1Fit.modelKind != model::ModelKind::Branch,
               "site scan is undefined for the branch model (no site "
               "mixture)");
  auto posteriors = eval.siteClassPosteriors(
      buildFitSpec(*context.alignment().code, context.pi(), h1Fit.modelKind,
                   h1Fit.hypothesis, h1Fit.params, h1Fit.classOmegas));
  scanCounters = eval.counters();
  return posteriors;
}

PositiveSelectionTest makePositiveSelectionTest(
    FitResult h0, FitResult h1, lik::SiteClassPosteriors posteriors,
    const lik::EvalCounters& scanCounters, double df) {
  PositiveSelectionTest test;
  test.h0 = std::move(h0);
  test.h1 = std::move(h1);
  test.lrt = stat::likelihoodRatioTest(test.h0.lnL, test.h1.lnL, df);
  test.posteriors = std::move(posteriors);
  test.totalSeconds = test.h0.seconds + test.h1.seconds;
  test.counters = test.h0.counters + test.h1.counters + scanCounters;
  return test;
}

}  // namespace slim::core
