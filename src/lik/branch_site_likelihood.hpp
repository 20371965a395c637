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
// flavor and the `simd` mode resolve once, at construction, to one kernel
// table (linalg::resolveKernels) that every propagator build, panel product
// and gradient product calls.
//
// A leaf's conditional panel would be one-hot (all ones for a gap or
// ambiguous codon), so its product with a propagator adds only exact zeros.
// Leaves are therefore kept as one codon state per pattern, and both sweeps
// gather row `state` of the stored propagator instead of multiplying; a
// missing codon reads the all-ones row's product, which the table computes
// once per propagator.  CodeML indexes P for its clean tips the same way, so
// every engine gathers and `codeml` vs `slim` still isolates the paper's
// optimizations.
//
// Site classes share subtrees (FastCodeML's trick).  Two classes have the
// same conditional panel at node v when they read the same eigensystem on
// every edge below v, so each node and edge has a representative: the
// lowest-index class equal to it there.  Classes that share anything run as
// one task per pattern block, representative first, and one down pass
// computes a class only where the workspace does not already hold its
// representative's panel; everywhere else it reads that panel.  Under the
// model A null, class 2b equals class 1 everywhere and 2a equals class 0
// off the foreground path.  The per-pattern arithmetic is the unshared
// pass's, so sharing moves no result bit, only the work counters.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

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
  /// Branch x class x pattern ops the down and up passes compute; a leaf
  /// branch's row gather counts as one propagation per pattern, like an
  /// internal branch's panel product row.  A product or gather read from a
  /// representative class's panel (site-class sharing) is not counted, nor
  /// is the up pass of a class equal to a lower class on every edge (class
  /// 2b under the model A null), whose gradient terms that class's up pass
  /// writes.
  std::int64_t patternPropagations = 0;
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
  /// state (use setBranchLength / branchNodes to address them).  Leaves map
  /// one-to-one onto alignment sequences by name: a leaf without a sequence,
  /// two leaves with one label, or a sequence no leaf names is refused
  /// (std::invalid_argument naming the label or sequence).  The tree's
  /// integer #k marks are read as branch classes (0 = background); a
  /// branch-heterogeneous mixture requires at least one marked non-root
  /// branch (checked per evaluation), while branch-homogeneous mixtures
  /// (M1a/M2a) run on unmarked trees.
  ///
  /// With options.cachePropagators on, `shard` (when non-null) supplies the
  /// persistent propagator store, letting warm state survive this evaluator
  /// — e.g. a refit at the same parameters.  The shard must not be used by
  /// another evaluator concurrently (see propagator_cache.hpp).  Null: a
  /// private shard is created and freed with the evaluator.
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

  /// Threads of the evaluator's pool: the eigendecompositions, the
  /// propagator builds and the pattern-block sweeps all run on it.
  int numThreads() const noexcept { return pool_->numThreads(); }
  /// The SIMD level of the table this evaluator runs (Scalar when the
  /// flavor is Naive — the baseline loop nests are never vectorized).
  linalg::SimdLevel simdLevel() const noexcept { return kernels_.level; }
  /// Entries currently held by the persistent propagator cache.
  std::size_t cachedPropagators() const noexcept {
    return shard_ ? shard_->entries.size() : 0;
  }
  /// The persistent store in use (null unless cachePropagators is on).
  const std::shared_ptr<PropagatorCacheShard>& cacheShard() const noexcept {
    return shard_;
  }

 private:
  // Row h of a child's product panel, read in place: a row of the child's
  // ws.prod panel, a row of a P^T table or a missing-codon row (stride 1),
  // or column `state` of a stored P under PerSiteGemv (stride n).
  struct PanelRow {
    const double* data;
    std::size_t stride;
  };

  // One child's product rows for a pattern block, resolved once per node:
  // an internal child's ws.prod panel, or a leaf's codon states and the
  // table and missing-codon row they index.
  struct ChildRows {
    const double* panel = nullptr;    // internal child: row h at h * n
    const double* table = nullptr;    // leaf: its propagator table
    const double* missing = nullptr;  // leaf: its missing-codon row
    const int* states = nullptr;      // leaf: codon state per block row
    std::size_t stateStep = 0;        // leaf: table offset per state
    std::size_t stride = 1;           // leaf: element stride of a state row

    PanelRow row(int h, std::size_t n) const noexcept {
      if (panel) return {panel + h * n, 1};
      const int state = states[h];
      if (state == seqio::kMissingState) return {missing, 1};
      return {table + state * stateStep, stride};
    }
  };

  // Per-worker scratch for one propagator build or one (sharing group,
  // pattern block) task of either sweep.  The down pass holds one class's
  // panel set at a time; downTag/prodTag name the representative class
  // whose values a panel holds (-1: none), so a later class of the same
  // task reads a panel instead of recomputing it.  A leaf's product rows
  // are never stored: both passes read them from the propagator table
  // (childRows).  Concurrent tasks share nothing mutable, and results land
  // in slots addressed by pattern index or propagator slot, which keeps
  // every reduction order — and so lnL and the gradient — independent of
  // the thread count and the block size.
  struct SweepWorkspace {
    // Build scratch, sized at construction so no worker allocates it.
    expm::ExpmWorkspace expm;
    std::vector<linalg::Matrix> down;         // per internal node: CPV panel
    std::vector<std::vector<double>> sDown;   // per node: subtree scale log
                                              // (zeros for a leaf)
    std::vector<linalg::Matrix> prod;         // per internal non-root node:
                                              // P * CPV
    std::vector<int> downTag, prodTag;        // per node, reset per task
    // Up pass (gradient sweep only).
    std::vector<linalg::Matrix> up;           // per internal node: outside
    std::vector<std::vector<double>> uScale;  // per internal node
    linalg::Matrix outside;                   // one child's outside panel
    std::vector<double> oScale;               // its scale log
    linalg::Matrix deriv;                     // dP * internal child CPV
    std::vector<ChildRows> children;          // one node's, per row pass
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

  // Build P (BundledGemm's other layout), dP^T and the missing dP row for
  // every (branch node, eigensystem) slot the last evaluation resolved, one
  // slot per worker task; the down pass reads the stored propagators and
  // missingRows_ themselves.
  void buildGradientPropagators();

  // Up (pre-order) pass of the gradient for site class m over patterns
  // [h0, h0 + len), on the panels class m's down pass left in ws, writing
  // each branch's per-pattern contribution into class m's slab of contrib
  // (numClasses slabs of numBranches x numPatterns, branch-major) at
  // [(m * numBranches + k) * npat + h].  A class whose root representative
  // is m (equal to m on every edge, like class 2b to class 1 under the
  // model A null) has m's outside panels and derivative forms, so this pass
  // writes its slab too, scaled by its own proportion, and its own up pass
  // is not run.
  void gradientUpPass(int m, int h0, int len,
                      std::span<const double> maxScaleLog,
                      std::span<const double> mixture, SweepWorkspace& ws,
                      std::span<double> contrib);

  // (Re)build eigenSystems_ / omegaToEigen_ for the spec, reusing them — and
  // keeping the propagator cache — when the spec is unchanged since the last
  // evaluation and caching is enabled.  The distinct omega slots are found
  // serially and decomposed on the workers.
  void prepareEigenSystems(const model::MixtureSpec& spec);

  // Site-class sharing for the active spec, from omegaToEigen_: the
  // representatives nodeRep_/edgeRep_ and the task groups.
  void planSharing();

  // Run perClass(m, h0, len, ws) for every (sharing group, pattern block)
  // task, the group's classes in order on one worker's workspace.
  void forEachGroupBlock(
      const std::function<void(int, int, int, SweepWorkspace&)>& perClass);

  // Build every propagator the sweep will read, and the missing-codon rows
  // of the leaves that need them.  Each (branch node, eigensystem) slot is
  // resolved serially — cache lookup or reservation, a sized table,
  // propPtr_, the counters — and the missing tables are then built on the
  // workers, each writing only its own.  The missing-codon rows come last,
  // since a slot may read a cache entry another slot's task built.
  void prebuildPropagators();

  // Row `state` of a P^T-layout table — a leaf's one-hot panel row times
  // the table — or, for a missing codon, row `slot` of missingRows.
  static const double* gatherRow(const linalg::Matrix& tableT,
                                 const linalg::Matrix& missingRows,
                                 std::size_t slot, int state) noexcept {
    return state == seqio::kMissingState ? missingRows.row(slot)
                                         : tableT.row(state);
  }

  // The lowest class equal to class m on every edge of the tree.
  int rootRep(int m) const noexcept {
    return nodeRep_[static_cast<std::size_t>(m) * tree_.numNodes() +
                    tree_.root()];
  }

  // child's product rows for the block starting at pattern h0, through
  // propagator slot `slot`: an internal child's ws.prod panel, or a leaf's
  // table rows (gatherRow's; column `state` of P under PerSiteGemv).
  ChildRows childRows(int child, std::size_t slot, int h0,
                      const SweepWorkspace& ws) const noexcept;

  // The down (post-order) pass of site class m over patterns [h0, h0 +
  // len), run only at the nodes and edges where ws does not hold class m's
  // representative's panel, leaving every panel current for class m.  At
  // each such node the internal children's panel products go into ws.prod;
  // then one pass per pattern row copies the first child's product row,
  // multiplies in each later child's row in child order, sums the scale
  // logs and does the underflow rescue.
  void downPass(int m, int h0, int len, SweepWorkspace& ws);

  // The strategy's stored propagator at branch length t into the n x n
  // `out`: P for per-site-gemv, P^T for bundled-gemm.
  void buildPropagator(int eigenIdx, double t, linalg::Matrix& out,
                       SweepWorkspace& ws) const;

  // Propagate a panel of internal-node CPVs (or onesRow_) through one
  // branch (strategy dispatch).
  void propagateBranch(const linalg::Matrix& prop,
                       linalg::ConstMatrixView childCpv,
                       linalg::MatrixView out);

  // The propagator slot of (branch node, omega slot): omega slots that share
  // an eigensystem (omega2 = omega1 = 1 under the model A null) share one
  // slot, so each (branch, eigensystem) pair gets one P, one dP and one
  // missing-codon row.  slot / numOmegas_ is the node, slot % numOmegas_
  // the eigensystem.
  std::size_t propIndex(int node, int omegaIdx) const noexcept {
    return static_cast<std::size_t>(node) * numOmegas_ +
           omegaToEigen_[omegaIdx];
  }

  const bio::GeneticCode& gc_;
  seqio::SitePatterns patterns_;
  std::vector<double> pi_;
  tree::Tree tree_;
  model::Hypothesis hypothesis_;
  LikelihoodOptions options_;

  // The one kernel table (kernels_.ops) and its level, resolved once at
  // construction.
  linalg::KernelChoice kernels_;

  int n_ = 0;             // codon states (61)
  int npat_ = 0;          // site patterns
  int blockMax_ = 0;      // rows per pattern block (last block may be short)
  double totalWeight_ = 0;
  std::vector<int> branchNodes_;

  // Leaf data, indexed by node id (empty for internal nodes): the codon
  // state of each pattern, seqio::kMissingState for a gap or ambiguity.
  std::vector<std::vector<int>> leafState_;
  std::vector<char> leafHasMissing_;  // any kMissingState in leafState_[id]
  linalg::Matrix onesRow_;            // 1 x n, the missing codon's panel row

  // The evaluator's workers (a 1-thread pool runs its tasks inline) and
  // their scratch, one workspace per worker.
  std::unique_ptr<support::ThreadPool> pool_;
  std::vector<SweepWorkspace> workspaces_;

  // Per-evaluation state, set from the active MixtureSpec.
  int numClasses_ = 0;
  int numOmegas_ = 0;
  std::vector<model::MixtureClass> activeClasses_;
  std::vector<double> activeOmegas_;
  std::vector<expm::CodonEigenSystem> eigenSystems_;  // per distinct omega
  std::vector<int> omegaToEigen_;
  std::vector<linalg::Matrix> propCache_;  // uncached-mode propagator storage
  std::vector<linalg::Matrix*> propPtr_;   // propIndex -> resolved prop
  // The slots a build phase hands to the workers (reused across calls).
  std::vector<std::size_t> buildSlots_;
  // Row propIndex(node, omega): onesRow_ through that propagator, for the
  // leaves with missing codons (other rows unused).  A 1-row call of the
  // table gives the panel row's bits, since output row i of a product
  // depends only on input row i.
  linalg::Matrix missingRows_;

  // Site-class sharing, [m * numNodes + node]: nodeRep_ is the lowest class
  // reading the same eigensystem as class m on every edge below the node,
  // edgeRep_ the same including the edge above it.  Classes linked by a
  // representative form a task group, run in classGroups_ order.
  std::vector<int> nodeRep_;
  std::vector<int> edgeRep_;
  std::vector<std::vector<int>> classGroups_;

  // Gradient-sweep propagator tables, propIndex-indexed like propPtr_
  // and rebuilt per gradient call (branch lengths move every iteration):
  // P for the outside recursion (BundledGemm stores P^T; PerSiteGemv reads
  // its stored P) and dP^T for the row-major panel gemms.
  std::vector<linalg::Matrix> gradProp_;    // P (BundledGemm only)
  std::vector<linalg::Matrix> gradDerivT_;  // (dP/dt)^T
  // onesRow_ times (dP/dt)^T, indexed like missingRows_.
  linalg::Matrix gradMissingDerivRows_;
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
