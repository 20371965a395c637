#pragma once
// Codon mixture-model likelihood via Felsenstein's pruning algorithm
// (paper Sec. II-B/II-C).
//
// The evaluator consumes a model::MixtureSpec — a set of omega classes plus
// site classes assigning omegas to background/foreground branches.  For
// each site class a post-order sweep propagates conditional probability
// vectors (CPVs) from the leaves to the root; at the root the
// class-conditional site likelihoods are mixed with the class proportions.
// Site patterns (unique alignment columns) are evaluated once and weighted
// by multiplicity.
//
// Branch-site model A (the paper's subject) is the primary instantiation;
// the pure site models M1a/M2a run through the same engine (the paper's
// "can also be applied to further maximum likelihood-based evolutionary
// models").
//
// The evaluator is the *shared* machinery of both engines; CodeML-vs-
// SlimCodeML behaviour is injected exclusively through LikelihoodOptions
// (kernel flavor, reconstruction path, propagation strategy), so measured
// speedups isolate exactly the optimizations the paper describes.  The
// flavor and the `simd`/`backend` modes resolve once, at construction, to
// one kernel table (backend::resolveComputeBackend) that every propagator
// build, panel product and gradient product calls.

#include <cstdint>
#include <memory>
#include <vector>

#include "backend/compute_backend.hpp"
#include "bio/genetic_code.hpp"
#include "expm/codon_eigen_system.hpp"
#include "lik/options.hpp"
#include "lik/propagator_cache.hpp"
#include "linalg/matrix.hpp"
#include "model/branch_site.hpp"
#include "model/site_mixture.hpp"
#include "seqio/alignment.hpp"
#include "support/parallel.hpp"
#include "tree/tree.hpp"

namespace slim::lik {

/// Operation counters, used by benches to report work per evaluation.
struct EvalCounters {
  std::int64_t evaluations = 0;           ///< logLikelihood calls
  std::int64_t eigenDecompositions = 0;   ///< symmetric eigenproblems solved
  std::int64_t propagatorBuilds = 0;      ///< P(t) / dP(t) constructions
  std::int64_t patternPropagations = 0;   ///< branch x class x pattern ops
  /// Analytic branch-gradient sweeps (logLikelihoodGradientBranches calls);
  /// each replaces numBranches finite-difference evaluations.
  std::int64_t gradientSweeps = 0;
  /// Persistent propagator-cache traffic (only counted when
  /// LikelihoodOptions::cachePropagators is on).
  std::int64_t propagatorCacheHits = 0;
  std::int64_t propagatorCacheMisses = 0;
};

/// Merge counters from another fit/evaluator.  Callers that fan independent
/// evaluations across tasks accumulate per-task counters with this in a
/// fixed (task-index) order, so aggregate counts are deterministic and
/// nothing is clobbered by concurrent fits.
inline EvalCounters& operator+=(EvalCounters& a, const EvalCounters& b) noexcept {
  a.evaluations += b.evaluations;
  a.eigenDecompositions += b.eigenDecompositions;
  a.propagatorBuilds += b.propagatorBuilds;
  a.patternPropagations += b.patternPropagations;
  a.gradientSweeps += b.gradientSweeps;
  a.propagatorCacheHits += b.propagatorCacheHits;
  a.propagatorCacheMisses += b.propagatorCacheMisses;
  return a;
}

inline EvalCounters operator+(EvalCounters a, const EvalCounters& b) noexcept {
  a += b;
  return a;
}

/// Per-site (pattern) posterior probabilities of the site classes given the
/// data — the "(Naive) Empirical Bayes" output used to identify sites under
/// positive selection once the LRT is significant (paper Sec. I-A).
struct SiteClassPosteriors {
  /// post[m][h] = P(class m | pattern h); for each h the sum over m is 1.
  std::vector<std::vector<double>> post;
  /// Posterior probability of positive selection per pattern: total over
  /// classes whose foreground omega exceeds 1.
  std::vector<double> positiveSelection;
  /// Expanded to original sites via SitePatterns::siteToPattern.
  std::vector<double> positiveSelectionBySite;
};

class BranchSiteLikelihood {
 public:
  /// The tree is copied; its branch lengths are this object's optimization
  /// state (use setBranchLength / branchNodes to address them).  The tree's
  /// integer #k marks are read as branch classes (0 = background); a
  /// branch-heterogeneous mixture requires at least one marked non-root
  /// branch (checked per evaluation), while branch-homogeneous mixtures
  /// (M1a/M2a) run on unmarked trees.
  ///
  /// With options.cachePropagators on, `shard` (when non-null) supplies the
  /// persistent propagator store, letting warm state survive this evaluator
  /// — e.g. the site scan after an H1 fit, or a refit at the same
  /// parameters.  The shard must not be used by another evaluator
  /// concurrently (see propagator_cache.hpp).  Null: a private shard is
  /// created (the PR-1 behaviour).
  BranchSiteLikelihood(const seqio::CodonAlignment& alignment,
                       const seqio::SitePatterns& patterns,
                       std::vector<double> pi, const tree::Tree& tree,
                       model::Hypothesis hypothesis, LikelihoodOptions options,
                       std::shared_ptr<PropagatorCacheShard> shard = nullptr);

  /// ln L of branch-site model A at the given substitution parameters and
  /// the current branch lengths.  Returns -infinity if a site likelihood
  /// underflows to zero.
  double logLikelihood(const model::BranchSiteParams& params);

  /// ln L of an arbitrary omega-class mixture (e.g. M1a/M2a from
  /// model/site_mixture.hpp) at the current branch lengths.
  double logLikelihood(const model::MixtureSpec& spec);

  /// NEB posteriors at the given parameters (typically the MLE).
  SiteClassPosteriors siteClassPosteriors(const model::BranchSiteParams& params);
  SiteClassPosteriors siteClassPosteriors(const model::MixtureSpec& spec);

  // --- analytic branch-length gradients ---
  /// ln L plus the analytic derivative d lnL / d t_k for every branch k (in
  /// branchNodes() order), at the given substitution parameters and the
  /// current branch lengths.  One evaluation plus one extra pruning-style
  /// sweep: a post-order pass retaining per-node conditional panels, a
  /// pre-order pass building the complementary "outside" panels, and per
  /// branch one panel product with dP(t)/dt — O(1) sweep-equivalents for the
  /// whole branch gradient instead of the numBranches + 1 evaluations of
  /// finite differences.  Returns -infinity (gradT zeroed) if a site
  /// likelihood underflows to zero.
  double logLikelihoodGradientBranches(const model::BranchSiteParams& params,
                                       std::span<double> gradT);
  double logLikelihoodGradientBranches(const model::MixtureSpec& spec,
                                       std::span<double> gradT);

  /// Same gradient computed from the *retained* class-conditional state of
  /// the immediately preceding logLikelihood / logLikelihoodGradientBranches
  /// call, skipping the re-evaluation: the caller guarantees neither the
  /// substitution parameters nor any branch length changed since.  The
  /// optimizer adapter uses this because BFGS always differentiates at the
  /// point the line search just evaluated.
  double gradientBranchesAtLastEvaluation(std::span<double> gradT);

  // --- branch-length state ---
  /// Non-root nodes in post-order; branch k of the optimization vector is
  /// the edge above branchNodes()[k].
  const std::vector<int>& branchNodes() const noexcept { return branchNodes_; }
  int numBranches() const noexcept { return static_cast<int>(branchNodes_.size()); }
  double branchLength(int k) const { return tree_.branchLength(branchNodes_[k]); }
  void setBranchLength(int k, double t) { tree_.setBranchLength(branchNodes_[k], t); }
  void setAllBranchLengths(double t);

  const tree::Tree& tree() const noexcept { return tree_; }
  model::Hypothesis hypothesis() const noexcept { return hypothesis_; }
  const LikelihoodOptions& options() const noexcept { return options_; }
  const std::vector<double>& pi() const noexcept { return pi_; }
  std::size_t numPatterns() const noexcept { return patterns_.numPatterns(); }
  double numSites() const noexcept { return totalWeight_; }

  const EvalCounters& counters() const noexcept { return counters_; }
  void resetCounters() noexcept { counters_ = {}; }

  /// Threads actually used by the pattern-block sweep.
  int numThreads() const noexcept {
    return pool_ ? pool_->numThreads() : 1;
  }
  /// The SIMD level options().simd resolved to at construction (Scalar when
  /// the flavor is Naive — the baseline loop nests are never vectorized).
  linalg::SimdLevel simdLevel() const noexcept { return backend_.simdLevel; }
  /// The compute backend options().backend resolved to at construction
  /// (Reference when the flavor is Naive, like simd).
  backend::BackendKind backendKind() const noexcept { return backend_.kind; }
  const char* backendName() const noexcept { return backend_.name; }
  /// Entries currently held by the persistent propagator cache.
  std::size_t cachedPropagators() const noexcept {
    return shard_ ? shard_->entries.size() : 0;
  }
  /// The persistent store in use (null unless cachePropagators is on).
  const std::shared_ptr<PropagatorCacheShard>& cacheShard() const noexcept {
    return shard_;
  }

 private:
  // Per-worker scratch for one pattern-block pruning sweep.  Everything a
  // sweep mutates lives here, so concurrent blocks share no mutable state;
  // block results land in classLik_/classScaleLog_ slots addressed by
  // pattern index, which keeps the final reduction order — and therefore
  // the log-likelihood — independent of the thread count.
  struct PruneWorkspace {
    std::vector<linalg::Matrix> nodeCpv;  // per node: blockMax x n
    std::vector<std::vector<double>> nodeScaleLog;  // per node: blockMax
    linalg::Matrix tmp;                   // propagation scratch (blockMax x n)
    std::int64_t patternPropagations = 0;
  };

  // Per-worker scratch for one gradient pattern block: the post-order pass
  // retains per-node conditional panels (the likelihood sweep overwrites
  // them), the pre-order pass adds the complementary outside panels.  Same
  // isolation discipline as PruneWorkspace: concurrent blocks share nothing
  // mutable, results land in slots addressed by task index.
  struct GradientWorkspace {
    std::vector<linalg::Matrix> down;   // per internal node: blockMax x n CPV
    std::vector<linalg::Matrix> prod;   // per non-root node: P * child CPV
    std::vector<linalg::Matrix> up;     // per internal node: outside panel
    std::vector<std::vector<double>> sDown;   // per node: subtree scale log
    std::vector<std::vector<double>> uScale;  // per internal node
    linalg::Matrix outside;             // one child's outside panel (scratch)
    std::vector<double> oScale;         // its scale log (scratch)
    linalg::Matrix deriv;               // dP * child CPV (scratch)
    std::int64_t patternPropagations = 0;
  };

  // Class-conditional pattern likelihoods: fills classLik_[m][h] (scaled)
  // and classScaleLog_[m][h] (log of the removed scale).
  void computeClassLikelihoods(const model::MixtureSpec& spec);

  // Mix the retained class results into per-pattern scale maxima and scaled
  // mixture likelihoods; returns lnL (-infinity on underflow).
  double mixClassLikelihoods(std::vector<double>& maxScaleLog,
                             std::vector<double>& mixture) const;

  // Whether site class m counts toward the "positive selection" posterior:
  // any non-background column of its omega row exceeds 1 (for a
  // single-column class, the class omega itself).
  bool classUnderPositiveSelection(int m) const noexcept;

  // The shared gradient pass over the retained class state (the tail of
  // logLikelihoodGradientBranches / gradientBranchesAtLastEvaluation).
  double gradientBranchesFromState(std::span<double> gradT);

  // Build the (P, P^T, dP^T) triple for every (branch node, omega) the
  // active classes reference, from the propagators the evaluation stored.
  void buildGradientPropagators();

  // Down + up sweep for site class m over patterns [h0, h0 + len), writing
  // each branch's per-pattern gradient contribution into the class slab
  // gradOut (numBranches x numPatterns, branch-major) at [k * npat + h].
  void gradientClassBlock(int m, int h0, int len,
                          std::span<const double> maxScaleLog,
                          std::span<const double> mixture,
                          GradientWorkspace& ws, std::span<double> gradOut);

  // (Re)build eigenSystems_ / omegaToEigen_ for the spec, reusing them — and
  // keeping the propagator cache — when the spec is unchanged since the last
  // evaluation and caching is enabled.
  void prepareEigenSystems(const model::MixtureSpec& spec);

  // Build every propagator the sweep will read (serial, so the parallel
  // region only ever reads propPtr_).
  void prebuildPropagators();

  // One pruning sweep for site class m over patterns [h0, h0 + len).
  void pruneClassBlock(int m, int h0, int len, PruneWorkspace& ws);

  // Ensure the propagator for (branch node, omega class) is built.
  const linalg::Matrix& propagator(int node, int omegaIdx);

  // The strategy's stored propagator at branch length t: P for
  // per-site-gemv, P^T for bundled-gemm.
  void buildPropagator(int eigenIdx, double t, linalg::Matrix& out);

  // Propagate a panel of child CPVs through one branch (strategy dispatch).
  void propagateBranch(const linalg::Matrix& prop,
                       linalg::ConstMatrixView childCpv,
                       linalg::MatrixView out);

  std::size_t propIndex(int node, int omegaIdx) const noexcept {
    return static_cast<std::size_t>(node) * numOmegas_ + omegaIdx;
  }

  const bio::GeneticCode& gc_;
  seqio::SitePatterns patterns_;
  std::vector<double> pi_;
  tree::Tree tree_;
  model::Hypothesis hypothesis_;
  LikelihoodOptions options_;

  // The one kernel table (backend_.ops) and its report labels, resolved
  // once at construction.
  backend::ComputeBackend backend_;

  int n_ = 0;             // codon states (61)
  int npat_ = 0;          // site patterns
  int blockMax_ = 0;      // rows per pattern block (last block may be short)
  double totalWeight_ = 0;
  std::vector<int> branchNodes_;

  // Leaf CPVs (pattern-major: row h is the length-n CPV of pattern h).
  std::vector<linalg::Matrix> leafCpv_;   // indexed by node id (leaves only)

  // Parallel sweep machinery.
  std::unique_ptr<support::ThreadPool> pool_;   // null: single-threaded
  std::vector<PruneWorkspace> workspaces_;      // one per worker
  std::vector<GradientWorkspace> gradWorkspaces_;  // lazily sized on first use

  // Per-evaluation state, set from the active MixtureSpec.
  int numClasses_ = 0;
  int numOmegas_ = 0;
  std::vector<model::MixtureClass> activeClasses_;
  std::vector<double> activeOmegas_;
  std::vector<expm::CodonEigenSystem> eigenSystems_;  // per distinct omega
  std::vector<int> omegaToEigen_;
  std::vector<linalg::Matrix> propCache_;  // uncached-mode propagator storage
  std::vector<const linalg::Matrix*> propPtr_;  // (node x omega) -> built prop
  expm::ExpmWorkspace expmWs_;
  linalg::Matrix transposeScratch_;  // BundledGemm builds P here, stores P^T

  // Gradient-sweep propagator tables, (node x omega)-indexed like propPtr_
  // and rebuilt per gradient call (branch lengths move every iteration):
  // P for the outside recursion, P^T and dP^T for the row-major panel gemms.
  std::vector<linalg::Matrix> gradProp_;    // P
  std::vector<linalg::Matrix> gradPropT_;   // P^T
  std::vector<linalg::Matrix> gradDerivT_;  // (dP/dt)^T
  std::vector<int> nodeToBranch_;  // node id -> branch index k (or -1)
  // Per-(class, branch, pattern) contribution slabs, persistent so the
  // per-sweep hot path only zero-fills (capacity is kept across calls).
  std::vector<double> gradContrib_;

  // Persistent propagator store (cachePropagators mode; else null).  May be
  // shared across sequential evaluators via the constructor's shard param.
  std::shared_ptr<PropagatorCacheShard> shard_;

  // Class-conditional results.
  std::vector<std::vector<double>> classLik_;
  std::vector<std::vector<double>> classScaleLog_;
  std::vector<double> classProp_;
  // Per-pattern mixing scratch (mixClassLikelihoods output), persistent so
  // the per-evaluation hot path performs no allocation.
  std::vector<double> mixMaxScaleLog_;
  std::vector<double> mixMixture_;

  EvalCounters counters_;
};

}  // namespace slim::lik
