#pragma once
// The shared substrate of the batch-first analysis API.
//
// Everything reusable across independent likelihood fits of one gene — the
// codon alignment, its compressed site patterns, the equilibrium
// frequencies, the (foreground-marked) tree and the persistent propagator
// cache — lives in an immutable AnalysisContext that the H0 fit, the H1 fit
// and the NEB site scan all share.  Contexts are handed around as
// shared_ptr<const ...>, so N tasks referencing one gene never rebuild its
// tables, and a batch of genes on one tree shares the tree object itself.
//
// The fit routine itself (fitHypothesis below) is a free function over a
// context: core::BranchSiteAnalysis (single gene) and core::BatchAnalysis
// (many genes, fanned across a TaskScheduler) are both thin drivers of the
// same code path, which is what keeps their results bit-identical.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "lik/propagator_cache.hpp"
#include "model/branch_site.hpp"
#include "model/frequencies.hpp"
#include "model/model_spec.hpp"
#include "opt/bfgs.hpp"
#include "opt/checkpoint.hpp"
#include "seqio/alignment.hpp"
#include "stat/lrt.hpp"
#include "tree/tree.hpp"

namespace slim::core {

struct FitOptions {
  /// Equilibrium frequency estimator (Selectome/CodeML default: F3x4).
  model::CodonFrequencyModel frequencyModel = model::CodonFrequencyModel::F3x4;
  /// Optimizer controls; maxIterations is the paper's "iterations" column.
  opt::BfgsOptions bfgs{};
  /// Which scenario to fit: branch-site A (default), the branch model,
  /// clade model C over the tree's branch classes, or M1a/M2a (`site`; H0 =
  /// M1a, H1 = M2a) — model/model_spec.hpp.
  model::ModelSpec modelSpec{};
  /// Starting substitution parameters.  Every kind reads the fields it has
  /// (M1a reads p0 but not p1); the branch model's background class omega
  /// starts at omega0, every other per-class omega at omega2.
  model::BranchSiteParams initialParams{};
  /// When false, every branch starts at initialBranchLength instead of the
  /// lengths carried by the input tree.
  bool useTreeBranchLengths = true;
  double initialBranchLength = 0.1;
  /// Non-zero: multiplicatively jitter the starting parameter values with
  /// this seed (CodeML's randomized initial values; the paper fixes the seed
  /// "to generate comparable and reproducible results").
  std::uint64_t startJitterSeed = 0;
  /// Likelihood-engine tuning layered on top of the engine preset.
  LikelihoodTuning tuning{};
};

struct FitResult {
  model::Hypothesis hypothesis = model::Hypothesis::H0;
  double lnL = 0;
  /// Which model family produced this fit (mirrors FitOptions::modelSpec).
  model::ModelKind modelKind = model::ModelKind::BranchSite;
  model::BranchSiteParams params;
  /// Per-branch-class omega MLEs: one per branch class for the branch
  /// model, the divergent omegas for clade model C (H0 fits carry the
  /// single shared value).  Empty for branch-site A and the site models,
  /// whose omegas live in `params` (M1a: p1 = 1 - p0, omega2 pinned to 1).
  std::vector<double> classOmegas;
  std::vector<double> branchLengths;  ///< Post-order branch order.
  int iterations = 0;
  /// Objective evaluations spent on values (start point + line searches).
  long functionEvaluations = 0;
  /// Objective evaluations spent inside gradients (FD probes); under
  /// GradientMode::Analytic the branch block costs none of these.
  long gradientEvaluations = 0;
  /// How the fit's gradients were computed.
  GradientMode gradientMode = GradientMode::FiniteDiff;
  /// The SIMD kernel level the evaluator resolved `simd =` to.
  linalg::SimdLevel simd = linalg::SimdLevel::Scalar;
  /// The compute backend the evaluator resolved `backend =` to.
  backend::BackendKind backend = backend::BackendKind::Reference;
  /// The propagator builder the fit ran with (`expm =` ctl key).
  backend::ExpmAlgorithm expm = backend::ExpmAlgorithm::Eigen;
  bool converged = false;
  /// True when a cancel predicate (deadline, SIGTERM, daemon cancel) stopped
  /// the optimizer; lnL/params hold the last accepted point.
  bool cancelled = false;
  /// The optimizer's stop reason ("gradient tolerance reached",
  /// "cancelled", ...).
  std::string message;
  double seconds = 0;
  lik::EvalCounters counters;
  /// Resume provenance: the checkpoint file this fit continued from (empty
  /// for an uninterrupted fit) and how many optimizer iterations were
  /// restored from it rather than recomputed here.  Recorded in the text
  /// and JSON reports.
  std::string resumedFrom;
  int iterationsReplayed = 0;
};

/// Output of the full H0-vs-H1 test.
struct PositiveSelectionTest {
  FitResult h0;
  FitResult h1;
  stat::LrtResult lrt;
  /// NEB posteriors at the H1 maximum (meaningful when the LRT rejects H0).
  lik::SiteClassPosteriors posteriors;
  double totalSeconds = 0;
  /// Aggregate engine counters over *all* evaluations of the test — both
  /// fits plus the site scan (whose work per-fit counters never covered).
  lik::EvalCounters counters;
};

/// Immutable per-gene analysis state, shareable across fit tasks.  Create
/// once, then fan any number of fitHypothesis / siteScanAtFit calls over it;
/// const methods are safe to call concurrently (the propagator-cache
/// directory is internally mutex-guarded, and each leased shard is exclusive
/// to one task — see propagator_cache.hpp).
class AnalysisContext {
 public:
  /// The tree's #k marks are its branch classes; branch-heterogeneous
  /// models need at least one marked branch.  Leaf labels must match the
  /// alignment sequence names.  Copies both inputs.
  static std::shared_ptr<const AnalysisContext> create(
      const seqio::CodonAlignment& alignment, const tree::Tree& tree,
      EngineKind engine, FitOptions options = {});

  /// Same, sharing an already-parsed tree (a multi-gene batch on one
  /// species tree stores the tree once, not once per gene).
  static std::shared_ptr<const AnalysisContext> create(
      seqio::CodonAlignment alignment, std::shared_ptr<const tree::Tree> tree,
      EngineKind engine, FitOptions options = {});

  const seqio::CodonAlignment& alignment() const noexcept { return alignment_; }
  const seqio::SitePatterns& patterns() const noexcept { return patterns_; }
  const std::vector<double>& pi() const noexcept { return pi_; }
  const tree::Tree& tree() const noexcept { return *tree_; }
  const std::shared_ptr<const tree::Tree>& treePtr() const noexcept {
    return tree_;
  }
  EngineKind engine() const noexcept { return engine_; }
  const FitOptions& options() const noexcept { return options_; }

  /// The engine preset with this context's tuning overrides applied.
  lik::LikelihoodOptions likelihoodOptions() const noexcept {
    return resolvedEngineOptions(engine_, options_.tuning);
  }

  /// Canonical shard slot of a hypothesis' fit task; the site scan at the
  /// H1 maximum reuses slot(H1), which is exactly where its propagators are
  /// already warm.
  static constexpr int shardSlot(model::Hypothesis h) noexcept {
    return h == model::Hypothesis::H1 ? 1 : 0;
  }

  /// Lease the persistent propagator shard for one task slot (lazily
  /// created; mutex-guarded directory).  Null when the resolved engine
  /// options have propagator caching off — the evaluator then runs uncached
  /// exactly as before.  A slot must not be used by two tasks concurrently.
  std::shared_ptr<lik::PropagatorCacheShard> cacheShard(int slot) const {
    if (!likelihoodOptions().cachePropagators) return nullptr;
    return cache_->shard(slot);
  }

  /// Total propagators currently cached across all shards (diagnostics).
  std::size_t cachedPropagators() const { return cache_->totalEntries(); }

  /// Cheap clone carrying different fit options: shares the parsed tree and
  /// — when `sharePropagatorCache` — the warm propagator-cache directory,
  /// while alignment/patterns/pi are copied as-is (no re-parsing, no
  /// recompression).  This is how the serve-mode context cache reuses one
  /// gene's hot state across jobs whose optimizer settings differ.  The new
  /// options must keep the frequency model (pi would be stale otherwise).
  /// Callers sharing the cache must not run two fits on the same shard slot
  /// concurrently — lease a private clone (sharePropagatorCache = false)
  /// for overlapping jobs.
  std::shared_ptr<const AnalysisContext> withOptions(
      FitOptions options, bool sharePropagatorCache = true) const;

  AnalysisContext(seqio::CodonAlignment alignment,
                  std::shared_ptr<const tree::Tree> tree, EngineKind engine,
                  FitOptions options);  // prefer create()

 private:
  seqio::CodonAlignment alignment_;
  seqio::SitePatterns patterns_;
  std::vector<double> pi_;
  std::shared_ptr<const tree::Tree> tree_;
  EngineKind engine_;
  FitOptions options_;
  std::shared_ptr<lik::SharedPropagatorCache> cache_;
};

/// Checkpoint hooks of one fit task, handed to fitHypothesis by the layer
/// that owns the checkpoint file (core::CheckpointManager via BatchAnalysis
/// or the config runners).  All members optional.
struct FitCheckpointHooks {
  /// Receives a resumable optimizer snapshot after every iteration.
  opt::BfgsCheckpointSink sink;
  /// Optimizer state to continue from instead of starting fresh.
  std::optional<opt::BfgsState> resumeFrom;
  /// Provenance recorded in FitResult::resumedFrom when resumeFrom is set
  /// (the checkpoint file path).
  std::string resumedFromPath;
};

/// Maximize ln L under one hypothesis over the context's shared data — the
/// one fit driver of every model kind: the optimization vector is the
/// ParameterLayout generated from (fitOptions.modelSpec, hypothesis, number
/// of branches), see core/objective.hpp.
/// `likOptions` is the fully resolved engine configuration for this task —
/// a scheduler running task-level fan-out passes numThreads = 1 so the
/// nested pattern sweep stays serial.  `fitOptions` must agree with the
/// context's frequency model (the context's pi is used).  `shard` optionally
/// carries warm propagator state across fits (null: per-fit private cache).
/// `checkpoint`, when non-null, snapshots the optimizer trajectory and/or
/// resumes a recorded one (bit-identical to the uninterrupted fit).
FitResult fitHypothesis(const AnalysisContext& context,
                        model::Hypothesis hypothesis,
                        const FitOptions& fitOptions,
                        const lik::LikelihoodOptions& likOptions,
                        std::shared_ptr<lik::PropagatorCacheShard> shard = {},
                        const FitCheckpointHooks* checkpoint = nullptr);

/// NEB site scan at an H1 maximum.  `scanCounters` receives the engine
/// counters of this evaluation (work that per-fit counters do not cover).
/// The fit's mixture comes from the same spec builder the fit used
/// (buildFitSpec); the branch model has no site mixture and must not be
/// scanned.
lik::SiteClassPosteriors siteScanAtFit(
    const AnalysisContext& context, const FitResult& h1Fit,
    const lik::LikelihoodOptions& likOptions,
    std::shared_ptr<lik::PropagatorCacheShard> shard,
    lik::EvalCounters& scanCounters);

/// Assemble the full positive-selection test from its three evaluations:
/// LRT plumbing (with the model's degrees of freedom), deterministic
/// counter merge (h0 + h1 + scan), wall time.
PositiveSelectionTest makePositiveSelectionTest(
    FitResult h0, FitResult h1, lik::SiteClassPosteriors posteriors,
    const lik::EvalCounters& scanCounters, double df = 1.0);

}  // namespace slim::core
