#include "lik/branch_site_likelihood.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "linalg/blas1.hpp"
#include "linalg/blas3.hpp"
#include "linalg/diag.hpp"
#include "model/frequencies.hpp"
#include "support/require.hpp"
#include "tree/branch_classes.hpp"

namespace slim::lik {

using linalg::ConstMatrixView;
using linalg::Matrix;
using linalg::MatrixView;
using model::MixtureSpec;

BranchSiteLikelihood::BranchSiteLikelihood(
    const seqio::CodonAlignment& alignment, const seqio::SitePatterns& patterns,
    std::vector<double> pi, const tree::Tree& tree,
    model::Hypothesis hypothesis, LikelihoodOptions options,
    std::shared_ptr<PropagatorCacheShard> shard)
    : gc_(*alignment.code),
      patterns_(patterns),
      pi_(std::move(pi)),
      tree_(tree),
      hypothesis_(hypothesis),
      options_(options),
      shard_(options.cachePropagators
                 ? (shard ? std::move(shard)
                          : std::make_shared<PropagatorCacheShard>())
                 : nullptr) {
  n_ = gc_.numSense();
  npat_ = static_cast<int>(patterns_.numPatterns());
  SLIM_REQUIRE(npat_ > 0, "no site patterns");
  model::validateFrequencies(pi_, n_);
  tree_.validate();
  SLIM_REQUIRE(options_.scalingThreshold > 0 && options_.scalingThreshold < 1,
               "scaling threshold must be in (0,1)");
  SLIM_REQUIRE(options_.numThreads >= 0, "numThreads must be >= 0");
  SLIM_REQUIRE(options_.blockSize >= 0, "blockSize must be >= 0");

  // Resolve the kernel table once; an explicit simd/backend request the
  // host or build cannot run fails loudly here rather than mid-evaluation.
  backend_ = backend::resolveComputeBackend(options_.flavor, options_.backend,
                                            options_.simd);

  branchNodes_ = tree_.branches();
  nodeToBranch_.assign(tree_.numNodes(), -1);
  for (int k = 0; k < static_cast<int>(branchNodes_.size()); ++k)
    nodeToBranch_[branchNodes_[k]] = k;

  // Map leaves onto alignment rows by name and build their static CPVs.
  leafCpv_.resize(tree_.numNodes());
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (!node.isLeaf()) continue;
    int row = -1;
    for (std::size_t s = 0; s < alignment.names.size(); ++s)
      if (alignment.names[s] == node.label) {
        row = static_cast<int>(s);
        break;
      }
    SLIM_REQUIRE(row >= 0, "leaf '" + node.label + "' not found in alignment");
    Matrix& cpv = leafCpv_[id];
    cpv.resize(npat_, n_);
    for (int h = 0; h < npat_; ++h) {
      const int state = patterns_.patterns[h][row];
      if (state == seqio::kMissingState) {
        for (int i = 0; i < n_; ++i) cpv(h, i) = 1.0;  // missing: any codon
      } else {
        SLIM_REQUIRE(state >= 0 && state < n_, "codon state out of range");
        cpv(h, state) = 1.0;
      }
    }
  }

  // The block partition is a function of blockSize and npat only — never of
  // the thread count — so the per-pattern arithmetic (and hence lnL) is
  // bit-identical however many workers execute the blocks.
  blockMax_ = options_.blockSize > 0 ? std::min(options_.blockSize, npat_)
                                     : npat_;
  const int threads = options_.numThreads == 1
                          ? 1
                          : support::resolveThreadCount(options_.numThreads);
  if (threads > 1) pool_ = std::make_unique<support::ThreadPool>(threads);
  workspaces_.resize(threads);

  totalWeight_ = 0;
  for (double w : patterns_.weights) totalWeight_ += w;
}

void BranchSiteLikelihood::setAllBranchLengths(double t) {
  for (int k = 0; k < numBranches(); ++k) setBranchLength(k, t);
}

void BranchSiteLikelihood::buildPropagator(int eigenIdx, double t,
                                           Matrix& out) {
  if (out.rows() != static_cast<std::size_t>(n_)) out.resize(n_, n_);
  const expm::CodonEigenSystem& es = eigenSystems_[eigenIdx];
  if (options_.propagation == PropagationStrategy::PerSiteGemv) {
    es.transitionMatrix(t, options_.reconstruction, backend_.ops, expmWs_, out);
    return;
  }
  // BundledGemm stores P *transposed*: the panel product W P^T then runs as
  // the saxpy-form gemm W (P^T), which streams contiguous propagator rows
  // with FMAs instead of doing horizontal-reduction dot products — much
  // faster for large pattern panels.  The O(n^2) transpose is paid once per
  // build and amortized over every pattern (and every cache hit).
  if (transposeScratch_.rows() != static_cast<std::size_t>(n_))
    transposeScratch_.resize(n_, n_);
  es.transitionMatrix(t, options_.reconstruction, backend_.ops, expmWs_,
                     transposeScratch_);
  linalg::transposeInto(transposeScratch_, out);
}

const Matrix& BranchSiteLikelihood::propagator(int node, int omegaIdx) {
  const std::size_t key = propIndex(node, omegaIdx);
  if (propPtr_[key]) return *propPtr_[key];

  const int eigenIdx = omegaToEigen_[omegaIdx];
  const double t = tree_.branchLength(node);

  if (shard_) {
    const PropagatorCacheShard::Key ck{eigenIdx, std::bit_cast<std::uint64_t>(t)};
    auto it = shard_->entries.find(ck);
    if (it == shard_->entries.end()) {
      // A full cache is flushed at the start of the *next* evaluation:
      // entries inserted this evaluation may already be referenced through
      // propPtr_, so they must stay addressable until the sweep finishes.
      if (shard_->entries.size() >= PropagatorCacheShard::kCapacity)
        shard_->flushNextEval = true;
      Matrix p;
      buildPropagator(eigenIdx, t, p);
      ++counters_.propagatorBuilds;
      ++counters_.propagatorCacheMisses;
      it = shard_->entries.emplace(ck, std::move(p)).first;
    } else {
      ++counters_.propagatorCacheHits;
    }
    propPtr_[key] = &it->second;
    return it->second;
  }

  Matrix& out = propCache_[key];
  buildPropagator(eigenIdx, t, out);
  ++counters_.propagatorBuilds;
  propPtr_[key] = &out;
  return out;
}

void BranchSiteLikelihood::prebuildPropagators() {
  for (int node : branchNodes_) {
    const int branchClass = tree_.node(node).mark;
    for (int m = 0; m < numClasses_; ++m)
      propagator(node, activeClasses_[m].omegaFor(branchClass));
  }
}

void BranchSiteLikelihood::propagateBranch(const Matrix& prop,
                                           ConstMatrixView childCpv,
                                           MatrixView out) {
  if (options_.propagation == PropagationStrategy::PerSiteGemv) {
    // prop holds P: row h of W P^T is CodeML's per-site product P w_h.
    linalg::gemmNT(backend_.ops, childCpv, prop.view(), out);
  } else {
    // prop holds P^T, so out(h,i) = sum_j childCpv(h,j) P^T(j,i)
    //  ==  (P w_h)_i for every h — one BLAS-3 panel product per branch.
    linalg::gemm(backend_.ops, childCpv, prop.view(), out);
  }
}

void BranchSiteLikelihood::pruneClassBlock(int m, int h0, int len,
                                           PruneWorkspace& ws) {
  const int numNodes = tree_.numNodes();
  if (static_cast<int>(ws.nodeCpv.size()) != numNodes) {
    ws.nodeCpv.resize(numNodes);
    ws.nodeScaleLog.resize(numNodes);
  }
  if (ws.tmp.rows() != static_cast<std::size_t>(blockMax_))
    ws.tmp.resize(blockMax_, n_);

  const int root = tree_.root();
  const auto& cls = activeClasses_[m];
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (node.isLeaf()) continue;
    Matrix& cpvStore = ws.nodeCpv[id];
    if (cpvStore.rows() != static_cast<std::size_t>(blockMax_))
      cpvStore.resize(blockMax_, n_);
    const MatrixView cpv = cpvStore.rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double* row = cpv.row(h);
      std::fill(row, row + n_, 1.0);
    }
    auto& scaleLog = ws.nodeScaleLog[id];
    scaleLog.assign(len, 0.0);

    for (int child : node.children) {
      const bool childIsLeaf = tree_.node(child).isLeaf();
      const ConstMatrixView childCpv =
          childIsLeaf ? leafCpv_[child].rowBlock(h0, len)
                      : ConstMatrixView(ws.nodeCpv[child].rowBlock(0, len));
      const int omegaIdx = cls.omegaFor(tree_.node(child).mark);
      // Prebuilt before the parallel region; read-only here.
      const Matrix& prop = *propPtr_[propIndex(child, omegaIdx)];
      const MatrixView out = ws.tmp.rowBlock(0, len);
      propagateBranch(prop, childCpv, out);
      ws.patternPropagations += len;
      linalg::hadamardInPlace(ConstMatrixView(out).span(), cpv.span());
      if (!childIsLeaf)
        for (int h = 0; h < len; ++h)
          scaleLog[h] += ws.nodeScaleLog[child][h];
    }

    // Underflow rescue: renormalize any pattern row whose maximum dropped
    // below the threshold, remembering the removed factor in log space.
    for (int h = 0; h < len; ++h) {
      double mx = 0.0;
      double* row = cpv.row(h);
      for (int i = 0; i < n_; ++i) mx = std::max(mx, row[i]);
      if (mx > 0.0 && mx < options_.scalingThreshold) {
        const double inv = 1.0 / mx;
        for (int i = 0; i < n_; ++i) row[i] *= inv;
        scaleLog[h] += std::log(mx);
      }
    }
  }

  // Root: mix over states with the equilibrium frequencies.  Each block owns
  // its [h0, h0 + len) slice of the class result rows, so concurrent blocks
  // never write the same element.
  const ConstMatrixView rootCpv = ws.nodeCpv[root].rowBlock(0, len);
  for (int h = 0; h < len; ++h) {
    double f = 0.0;
    const double* row = rootCpv.row(h);
    for (int i = 0; i < n_; ++i) f += pi_[i] * row[i];
    classLik_[m][h0 + h] = f;
    classScaleLog_[m][h0 + h] = ws.nodeScaleLog[root][h];
  }
}

void BranchSiteLikelihood::prepareEigenSystems(const MixtureSpec& spec) {
  if (shard_) {
    if (shard_->flushNextEval) {
      shard_->entries.clear();
      shard_->flushNextEval = false;
    }
    // Entries are only reusable when they were built by this evaluator's
    // kernel table (mirroring how checkpointConfigHash pins the resolved
    // kernels).  Different tables agree to <= 1e-10, not bit for bit, so a
    // shard warmed by one table must never serve another.
    const bool pathMatches = shard_->builtKernels.empty() ||
                             shard_->builtKernels == backend_.ops.name;
    // Identical substitution parameters since the shard was filled mean the
    // eigensystems — and every cached propagator derived from them — are
    // still valid.  This is what makes optimizer line searches and
    // finite-difference gradients (which move few coordinates per call)
    // skip nearly all eigen-reconstruction work.
    const bool specMatches = pathMatches &&
                             spec.omegas == shard_->specOmegas &&
                             spec.scaledS == shard_->specScaledS;
    if (specMatches && !eigenSystems_.empty()) return;
    // A *warm* shard handed to a fresh evaluator (specMatches, but no local
    // eigensystems yet) keeps its entries: the decomposition below is
    // deterministic, so the eigen indices the stored keys refer to come out
    // identical.
    if (!specMatches) shard_->entries.clear();
  }

  // One eigendecomposition per *distinct* omega value (e.g. under the
  // model A null, omega2 == omega1 == 1 shares one).
  eigenSystems_.clear();
  omegaToEigen_.assign(numOmegas_, -1);
  for (int k = 0; k < numOmegas_; ++k) {
    int found = -1;
    for (int j = 0; j < k; ++j)
      if (spec.omegas[j] == spec.omegas[k]) {
        found = omegaToEigen_[j];
        break;
      }
    if (found < 0) {
      eigenSystems_.emplace_back(spec.scaledS[k], pi_);
      ++counters_.eigenDecompositions;
      found = static_cast<int>(eigenSystems_.size()) - 1;
    }
    omegaToEigen_[k] = found;
  }

  if (shard_) {
    shard_->specOmegas = spec.omegas;
    shard_->specScaledS = spec.scaledS;
    shard_->builtKernels = backend_.ops.name;
  }
}

bool BranchSiteLikelihood::classUnderPositiveSelection(int m) const noexcept {
  const auto& row = activeClasses_[m].omega;
  if (row.size() == 1) return activeOmegas_[row.front()] > 1.0;
  for (std::size_t b = 1; b < row.size(); ++b)
    if (activeOmegas_[row[b]] > 1.0) return true;
  return false;
}

void BranchSiteLikelihood::computeClassLikelihoods(const MixtureSpec& spec) {
  spec.validate(n_);
  SLIM_REQUIRE(spec.branchHomogeneous() || tree::hasMarkedBranch(tree_),
               "branch-heterogeneous mixture requires at least one marked "
               "branch (#k)");
  numClasses_ = spec.numClasses();
  numOmegas_ = spec.numOmegas();
  activeClasses_ = spec.classes;
  activeOmegas_ = spec.omegas;
  classProp_.resize(numClasses_);
  classLik_.resize(numClasses_);
  classScaleLog_.resize(numClasses_);
  for (int m = 0; m < numClasses_; ++m) {
    classProp_[m] = spec.classes[m].proportion;
    classLik_[m].assign(npat_, 0.0);
    classScaleLog_[m].assign(npat_, 0.0);
  }

  prepareEigenSystems(spec);

  // Propagators depend on branch lengths and omega: rebuild lazily.
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  if (!options_.cachePropagators) propCache_.resize(propSlots);
  propPtr_.assign(propSlots, nullptr);
  prebuildPropagators();

  // Pattern-blocked sweep: every (site class, pattern block) pair is an
  // independent task reading shared immutable state (tree, leaf CPVs,
  // prebuilt propagators) and writing its own slice of the class results.
  const int numBlocks = (npat_ + blockMax_ - 1) / blockMax_;
  const int numTasks = numClasses_ * numBlocks;
  const auto runTask = [&](int task, int worker) {
    const int m = task / numBlocks;
    const int b = task % numBlocks;
    const int h0 = b * blockMax_;
    pruneClassBlock(m, h0, std::min(blockMax_, npat_ - h0),
                    workspaces_[worker]);
  };
  if (pool_) {
    pool_->parallelFor(numTasks, runTask);
  } else {
    for (int task = 0; task < numTasks; ++task) runTask(task, 0);
  }
  // Deterministic merge of the per-worker counters.
  for (auto& ws : workspaces_) {
    counters_.patternPropagations += ws.patternPropagations;
    ws.patternPropagations = 0;
  }
  ++counters_.evaluations;
}

double BranchSiteLikelihood::logLikelihood(
    const model::BranchSiteParams& params) {
  params.validate(hypothesis_);
  return logLikelihood(
      model::buildModelASpec(gc_, pi_, params, hypothesis_));
}

double BranchSiteLikelihood::mixClassLikelihoods(
    std::vector<double>& maxScaleLog, std::vector<double>& mixture) const {
  maxScaleLog.resize(npat_);
  mixture.resize(npat_);
  double lnL = 0.0;
  for (int h = 0; h < npat_; ++h) {
    double maxS = classScaleLog_[0][h];
    for (int m = 1; m < numClasses_; ++m)
      maxS = std::max(maxS, classScaleLog_[m][h]);
    double f = 0.0;
    for (int m = 0; m < numClasses_; ++m)
      f += classProp_[m] * classLik_[m][h] *
           std::exp(classScaleLog_[m][h] - maxS);
    maxScaleLog[h] = maxS;
    mixture[h] = f;
    if (!(f > 0.0) || !std::isfinite(f))
      return -std::numeric_limits<double>::infinity();
    lnL += patterns_.weights[h] * (std::log(f) + maxS);
  }
  return lnL;
}

double BranchSiteLikelihood::logLikelihood(const MixtureSpec& spec) {
  computeClassLikelihoods(spec);
  return mixClassLikelihoods(mixMaxScaleLog_, mixMixture_);
}

double BranchSiteLikelihood::logLikelihoodGradientBranches(
    const model::BranchSiteParams& params, std::span<double> gradT) {
  params.validate(hypothesis_);
  return logLikelihoodGradientBranches(
      model::buildModelASpec(gc_, pi_, params, hypothesis_), gradT);
}

double BranchSiteLikelihood::logLikelihoodGradientBranches(
    const MixtureSpec& spec, std::span<double> gradT) {
  computeClassLikelihoods(spec);
  return gradientBranchesFromState(gradT);
}

double BranchSiteLikelihood::gradientBranchesAtLastEvaluation(
    std::span<double> gradT) {
  SLIM_REQUIRE(numClasses_ > 0,
               "gradientBranchesAtLastEvaluation: no prior evaluation");
  return gradientBranchesFromState(gradT);
}

double BranchSiteLikelihood::gradientBranchesFromState(std::span<double> gradT) {
  const int numB = numBranches();
  SLIM_REQUIRE(static_cast<int>(gradT.size()) == numB, "gradient size mismatch");
  std::fill(gradT.begin(), gradT.end(), 0.0);

  const double lnL = mixClassLikelihoods(mixMaxScaleLog_, mixMixture_);
  if (!std::isfinite(lnL)) return lnL;  // underflow: gradient undefined
  ++counters_.gradientSweeps;

  buildGradientPropagators();
  if (gradWorkspaces_.size() != workspaces_.size())
    gradWorkspaces_.resize(workspaces_.size());

  // Same task shape as the likelihood sweep: every (site class, pattern
  // block) pair is independent.  Each task writes per-(branch, pattern)
  // contributions into its class's slab — per-pattern values are independent
  // of the block partition, and the reduction below runs in fixed
  // (branch, pattern, class) order — so the gradient, like the likelihood,
  // is bit-identical for every thread count and block size.
  const int numBlocks = (npat_ + blockMax_ - 1) / blockMax_;
  const int numTasks = numClasses_ * numBlocks;
  const std::size_t slabSize = static_cast<std::size_t>(numB) * npat_;
  gradContrib_.assign(static_cast<std::size_t>(numClasses_) * slabSize, 0.0);
  std::vector<double>& contrib = gradContrib_;
  const auto runTask = [&](int task, int worker) {
    const int m = task / numBlocks;
    const int b = task % numBlocks;
    const int h0 = b * blockMax_;
    gradientClassBlock(m, h0, std::min(blockMax_, npat_ - h0), mixMaxScaleLog_,
                       mixMixture_, gradWorkspaces_[worker],
                       std::span<double>(contrib.data() + m * slabSize,
                                         slabSize));
  };
  if (pool_) {
    pool_->parallelFor(numTasks, runTask);
  } else {
    for (int task = 0; task < numTasks; ++task) runTask(task, 0);
  }
  // Fixed (branch, class, pattern) reduction order: deterministic and
  // partition-independent like the task writes, with the innermost loop
  // running linearly through each slab's contiguous pattern row.
  for (int k = 0; k < numB; ++k) {
    double g = 0.0;
    for (int m = 0; m < numClasses_; ++m) {
      const double* row =
          contrib.data() + m * slabSize + static_cast<std::size_t>(k) * npat_;
      for (int h = 0; h < npat_; ++h) g += row[h];
    }
    gradT[k] = g;
  }
  for (auto& ws : gradWorkspaces_) {
    counters_.patternPropagations += ws.patternPropagations;
    ws.patternPropagations = 0;
  }
  return lnL;
}

void BranchSiteLikelihood::buildGradientPropagators() {
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  gradProp_.resize(propSlots);
  gradPropT_.resize(propSlots);
  gradDerivT_.resize(propSlots);
  std::vector<char> built(propSlots, 0);
  Matrix dp(n_, n_);
  for (int node : branchNodes_) {
    const int branchClass = tree_.node(node).mark;
    for (int m = 0; m < numClasses_; ++m) {
      const auto& cls = activeClasses_[m];
      const int omegaIdx = cls.omegaFor(branchClass);
      const std::size_t slot = propIndex(node, omegaIdx);
      if (built[slot]) continue;
      built[slot] = 1;
      const int eigenIdx = omegaToEigen_[omegaIdx];
      Matrix& p = gradProp_[slot];
      Matrix& pT = gradPropT_[slot];
      if (p.rows() != static_cast<std::size_t>(n_)) p.resize(n_, n_);
      if (pT.rows() != static_cast<std::size_t>(n_)) pT.resize(n_, n_);
      // The evaluation's propagator table (still addressable — the gradient
      // runs on the retained state of the last evaluation) holds P^T under
      // BundledGemm and P under PerSiteGemv for every slot visited here.
      const Matrix* stored = propPtr_[slot];
      SLIM_REQUIRE(stored != nullptr,
                   "gradient: propagator missing from the last evaluation");
      if (options_.propagation == PropagationStrategy::BundledGemm) {
        pT = *stored;
        linalg::transposeInto(pT, p);
      } else {
        p = *stored;
        linalg::transposeInto(p, pT);
      }
      Matrix& dT = gradDerivT_[slot];
      if (dT.rows() != static_cast<std::size_t>(n_)) dT.resize(n_, n_);
      eigenSystems_[eigenIdx].derivativeMatrix(tree_.branchLength(node),
                                               backend_.ops, expmWs_, dp);
      linalg::transposeInto(dp, dT);
      ++counters_.propagatorBuilds;
    }
  }
}

void BranchSiteLikelihood::gradientClassBlock(
    int m, int h0, int len, std::span<const double> maxScaleLog,
    std::span<const double> mixture, GradientWorkspace& ws,
    std::span<double> gradOut) {
  const int numNodes = tree_.numNodes();
  if (static_cast<int>(ws.down.size()) != numNodes) {
    ws.down.resize(numNodes);
    ws.prod.resize(numNodes);
    ws.up.resize(numNodes);
    ws.sDown.resize(numNodes);
    ws.uScale.resize(numNodes);
  }
  if (ws.outside.rows() != static_cast<std::size_t>(blockMax_)) {
    ws.outside.resize(blockMax_, n_);
    ws.deriv.resize(blockMax_, n_);
  }

  // The gradient sweep's panel products run on the evaluator's kernel
  // table, like the likelihood sweep's.
  const int root = tree_.root();
  const auto& cls = activeClasses_[m];
  const auto omegaOf = [&](int node) {
    return cls.omegaFor(tree_.node(node).mark);
  };
  const auto childPanel = [&](int c) -> ConstMatrixView {
    return tree_.node(c).isLeaf()
               ? leafCpv_[c].rowBlock(h0, len)
               : ConstMatrixView(ws.down[c].rowBlock(0, len));
  };

  // Down (post-order) pass — the likelihood sweep again, but *retaining* per
  // node the subtree conditional panel D, its scale log, and per child the
  // propagated panel prod = P * D_child (the outside recursion multiplies
  // sibling prods together).
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (node.isLeaf()) {
      ws.sDown[id].assign(len, 0.0);
      continue;
    }
    Matrix& dStore = ws.down[id];
    if (dStore.rows() != static_cast<std::size_t>(blockMax_))
      dStore.resize(blockMax_, n_);
    const MatrixView d = dStore.rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double* row = d.row(h);
      std::fill(row, row + n_, 1.0);
    }
    auto& scale = ws.sDown[id];
    scale.assign(len, 0.0);

    for (int c : node.children) {
      Matrix& prodStore = ws.prod[c];
      if (prodStore.rows() != static_cast<std::size_t>(blockMax_))
        prodStore.resize(blockMax_, n_);
      const MatrixView prod = prodStore.rowBlock(0, len);
      linalg::gemm(backend_.ops, childPanel(c),
                   gradPropT_[propIndex(c, omegaOf(c))].view(), prod);
      linalg::hadamardInPlace(ConstMatrixView(prod).span(), d.span());
      for (int h = 0; h < len; ++h) scale[h] += ws.sDown[c][h];
      ws.patternPropagations += len;
    }

    // Underflow rescue, exactly as in the likelihood sweep.
    for (int h = 0; h < len; ++h) {
      double mx = 0.0;
      double* row = d.row(h);
      for (int i = 0; i < n_; ++i) mx = std::max(mx, row[i]);
      if (mx > 0.0 && mx < options_.scalingThreshold) {
        const double inv = 1.0 / mx;
        for (int i = 0; i < n_; ++i) row[i] *= inv;
        scale[h] += std::log(mx);
      }
    }
  }

  // Up (pre-order) pass.  The outside panel O_c of the edge above node c
  // satisfies   L_true(h) = sum_ij O_c(h,i) P_c(i,j) D_c(h,j) * e^{s_c + o_c},
  // so the branch derivative only swaps P_c for dP_c/dt in that bilinear
  // form.  Recursion from the root (O_root = pi): O_c = U_v ⊙ Π_{siblings}
  // prod, U_c = P_c^T O_c, with scale logs carried alongside.
  Matrix& upRoot = ws.up[root];
  if (upRoot.rows() != static_cast<std::size_t>(blockMax_))
    upRoot.resize(blockMax_, n_);
  {
    const MatrixView u = upRoot.rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double* row = u.row(h);
      for (int i = 0; i < n_; ++i) row[i] = pi_[i];
    }
    ws.uScale[root].assign(len, 0.0);
  }

  const auto& post = tree_.postOrder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    const int id = *it;
    const auto& node = tree_.node(id);
    if (node.isLeaf()) continue;
    const ConstMatrixView u = ws.up[id].rowBlock(0, len);
    const auto& uScale = ws.uScale[id];

    for (int c : node.children) {
      const MatrixView o = ws.outside.rowBlock(0, len);
      linalg::copy(u.span(), o.span());
      ws.oScale.assign(len, 0.0);
      for (int h = 0; h < len; ++h) ws.oScale[h] = uScale[h];
      for (int s : node.children) {
        if (s == c) continue;
        linalg::hadamardInPlace(
            ConstMatrixView(ws.prod[s].rowBlock(0, len)).span(), o.span());
        for (int h = 0; h < len; ++h) ws.oScale[h] += ws.sDown[s][h];
      }

      const std::size_t slot = propIndex(c, omegaOf(c));
      const MatrixView deriv = ws.deriv.rowBlock(0, len);
      linalg::gemm(backend_.ops, childPanel(c), gradDerivT_[slot].view(),
                   deriv);
      ws.patternPropagations += len;

      const int k = nodeToBranch_[c];
      for (int h = 0; h < len; ++h) {
        const double dval = linalg::dot(o.rowSpan(h), deriv.rowSpan(h));
        if (dval == 0.0) continue;
        // exp() applied in two halves: a rescale deep in the tree can push
        // the scale restoration near the overflow edge before the (tiny)
        // bilinear form damps it, and the split keeps each factor finite.
        const double eHalf =
            std::exp(0.5 * (ws.sDown[c][h] + ws.oScale[h] - maxScaleLog[h0 + h]));
        gradOut[static_cast<std::size_t>(k) * npat_ + h0 + h] =
            patterns_.weights[h0 + h] * classProp_[m] *
            ((dval * eHalf) * eHalf) / mixture[h0 + h];
      }

      if (!tree_.node(c).isLeaf()) {
        Matrix& upC = ws.up[c];
        if (upC.rows() != static_cast<std::size_t>(blockMax_))
          upC.resize(blockMax_, n_);
        const MatrixView uc = upC.rowBlock(0, len);
        linalg::gemm(backend_.ops, ConstMatrixView(o), gradProp_[slot].view(),
                     uc);
        ws.patternPropagations += len;
        auto& us = ws.uScale[c];
        us.assign(len, 0.0);
        for (int h = 0; h < len; ++h) {
          us[h] = ws.oScale[h];
          double mx = 0.0;
          double* row = uc.row(h);
          for (int i = 0; i < n_; ++i) mx = std::max(mx, row[i]);
          if (mx > 0.0 && mx < options_.scalingThreshold) {
            const double inv = 1.0 / mx;
            for (int i = 0; i < n_; ++i) row[i] *= inv;
            us[h] += std::log(mx);
          }
        }
      }
    }
  }
}

SiteClassPosteriors BranchSiteLikelihood::siteClassPosteriors(
    const model::BranchSiteParams& params) {
  params.validate(hypothesis_);
  return siteClassPosteriors(
      model::buildModelASpec(gc_, pi_, params, hypothesis_));
}

SiteClassPosteriors BranchSiteLikelihood::siteClassPosteriors(
    const MixtureSpec& spec) {
  computeClassLikelihoods(spec);

  SiteClassPosteriors out;
  out.post.assign(numClasses_, std::vector<double>(npat_, 0.0));
  out.positiveSelection.assign(npat_, 0.0);

  std::vector<double> joint(numClasses_);
  for (int h = 0; h < npat_; ++h) {
    double maxS = classScaleLog_[0][h];
    for (int m = 1; m < numClasses_; ++m)
      maxS = std::max(maxS, classScaleLog_[m][h]);
    double f = 0.0;
    for (int m = 0; m < numClasses_; ++m) {
      joint[m] = classProp_[m] * classLik_[m][h] *
                 std::exp(classScaleLog_[m][h] - maxS);
      f += joint[m];
    }
    SLIM_REQUIRE(f > 0.0, "zero site likelihood in posterior computation");
    for (int m = 0; m < numClasses_; ++m) {
      out.post[m][h] = joint[m] / f;
      // "Positive selection" = classes with a non-background omega > 1
      // (for single-column site classes, the class omega itself).
      if (classUnderPositiveSelection(m))
        out.positiveSelection[h] += out.post[m][h];
    }
  }

  out.positiveSelectionBySite.reserve(patterns_.siteToPattern.size());
  for (int p : patterns_.siteToPattern)
    out.positiveSelectionBySite.push_back(out.positiveSelection[p]);
  return out;
}

}  // namespace slim::lik
