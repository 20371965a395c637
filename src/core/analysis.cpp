#include "core/analysis.hpp"

#include "support/require.hpp"

namespace slim::core {

using model::Hypothesis;

BranchSiteAnalysis::BranchSiteAnalysis(const seqio::CodonAlignment& alignment,
                                       const tree::Tree& tree,
                                       EngineKind engine, FitOptions options)
    : context_(AnalysisContext::create(alignment, tree, engine,
                                       std::move(options))) {}

BranchSiteAnalysis::BranchSiteAnalysis(
    std::shared_ptr<const AnalysisContext> context)
    : context_(std::move(context)) {
  SLIM_REQUIRE(context_ != nullptr, "BranchSiteAnalysis: null context");
}

FitResult BranchSiteAnalysis::fit(Hypothesis hypothesis) {
  return fitHypothesis(*context_, hypothesis, context_->options(),
                       context_->likelihoodOptions(),
                       context_->cacheShard(AnalysisContext::shardSlot(hypothesis)));
}

PositiveSelectionTest BranchSiteAnalysis::run() {
  FitResult h0 = fit(Hypothesis::H0);
  FitResult h1 = fit(Hypothesis::H1);
  // The scan reuses the H1 shard: at the maximum just fitted, every
  // propagator it needs is already cached (when caching is on).  The
  // branch model has no site mixture, so there is nothing to scan; nor is
  // there for a cancelled H1 fit, whose truncated point has no meaningful
  // posteriors (as in BatchAnalysis).
  lik::EvalCounters scanCounters;
  lik::SiteClassPosteriors posteriors;
  if (!h1.cancelled && h1.modelKind != model::ModelKind::Branch)
    posteriors = siteScanAtFit(
        *context_, h1, context_->likelihoodOptions(),
        context_->cacheShard(AnalysisContext::shardSlot(Hypothesis::H1)),
        scanCounters);
  return makePositiveSelectionTest(
      std::move(h0), std::move(h1), std::move(posteriors), scanCounters,
      context_->options().modelSpec.lrtDegreesOfFreedom());
}

}  // namespace slim::core
