#pragma once
// Top-level single-gene public API: fit branch-site model A under H0 and H1
// by maximum likelihood, perform the likelihood-ratio test for positive
// selection on the marked foreground branch, and report per-site posterior
// probabilities (the full CodeML branch-site workflow of paper Sec. I-A).
// The same class runs every other ModelSpec kind (FitOptions::modelSpec):
// the branch model, clade model C and M1a vs M2a.
//
// BranchSiteAnalysis is a thin wrapper over the shared-context machinery of
// core/context.hpp: it owns one AnalysisContext and drives the same
// fitHypothesis / siteScanAtFit code path that core::BatchAnalysis fans
// across a TaskScheduler — which is why a batch run and N sequential runs
// produce bit-identical results.  FitOptions, FitResult and
// PositiveSelectionTest live in context.hpp and are re-exported here.

#include "core/context.hpp"
#include "core/engine.hpp"

namespace slim::core {

class BranchSiteAnalysis {
 public:
  /// The tree's #k marks are its branch classes (branch-heterogeneous
  /// models need at least one marked branch); its leaf labels must match
  /// the alignment sequence names.
  BranchSiteAnalysis(const seqio::CodonAlignment& alignment,
                     const tree::Tree& tree, EngineKind engine,
                     FitOptions options = {});

  /// Wrap an existing shared context (the batch / multi-gene path).
  explicit BranchSiteAnalysis(std::shared_ptr<const AnalysisContext> context);

  /// Maximize ln L under one hypothesis.
  FitResult fit(model::Hypothesis hypothesis);

  /// Fit both hypotheses, run the LRT and the NEB site scan.
  PositiveSelectionTest run();

  const std::vector<double>& pi() const noexcept { return context_->pi(); }
  const seqio::SitePatterns& patterns() const noexcept {
    return context_->patterns();
  }
  EngineKind engine() const noexcept { return context_->engine(); }
  const FitOptions& options() const noexcept { return context_->options(); }

  const AnalysisContext& context() const noexcept { return *context_; }
  const std::shared_ptr<const AnalysisContext>& contextPtr() const noexcept {
    return context_;
  }

 private:
  std::shared_ptr<const AnalysisContext> context_;
};

}  // namespace slim::core
