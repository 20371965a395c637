#include "lik/branch_site_likelihood.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
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

  // Resolve the kernel table once; an explicit simd level the host or
  // build cannot run fails loudly here rather than mid-evaluation.  The
  // transitional BackendMode::Reference (ROADMAP item 7) forces scalar.
  kernels_ = linalg::resolveKernels(
      options_.flavor, options_.backend == backend::BackendMode::Reference
                           ? linalg::SimdMode::Scalar
                           : options_.simd);

  branchNodes_ = tree_.branches();
  nodeToBranch_.assign(tree_.numNodes(), -1);
  for (int k = 0; k < static_cast<int>(branchNodes_.size()); ++k)
    nodeToBranch_[branchNodes_[k]] = k;

  // Map leaves one-to-one onto alignment rows by name and keep their codon
  // states.  An unused row would still have entered pi and the patterns.
  leafState_.resize(tree_.numNodes());
  leafHasMissing_.assign(tree_.numNodes(), 0);
  std::vector<char> rowUsed(alignment.names.size(), 0);
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    if (!node.isLeaf()) continue;
    const auto it = std::find(alignment.names.begin(), alignment.names.end(),
                              node.label);
    SLIM_REQUIRE(it != alignment.names.end(),
                 "leaf '" + node.label + "' not found in alignment");
    const auto row = static_cast<std::size_t>(it - alignment.names.begin());
    SLIM_REQUIRE(!rowUsed[row], "leaf '" + node.label +
                                    "' appears more than once in the tree");
    rowUsed[row] = 1;
    std::vector<int>& states = leafState_[id];
    states.resize(npat_);
    for (int h = 0; h < npat_; ++h) {
      const int state = patterns_.patterns[h][row];
      SLIM_REQUIRE(state == seqio::kMissingState || (state >= 0 && state < n_),
                   "codon state out of range");
      states[h] = state;
      if (state == seqio::kMissingState) leafHasMissing_[id] = 1;
    }
  }
  for (std::size_t s = 0; s < rowUsed.size(); ++s)
    SLIM_REQUIRE(rowUsed[s], "sequence '" + alignment.names[s] +
                                 "' is not a leaf of the tree");
  onesRow_ = Matrix(1, n_, 1.0);

  // The block partition is a function of blockSize and npat only — never of
  // the thread count — so the per-pattern arithmetic (and hence lnL) is
  // bit-identical however many workers execute the blocks.
  blockMax_ = options_.blockSize > 0 ? std::min(options_.blockSize, npat_)
                                     : npat_;
  const int threads = options_.numThreads == 1
                          ? 1
                          : support::resolveThreadCount(options_.numThreads);
  pool_ = std::make_unique<support::ThreadPool>(threads);
  workspaces_.resize(threads);
  for (SweepWorkspace& ws : workspaces_) {
    ws.expm.y.resize(n_, n_);
    ws.expm.expDiag.assign(n_, 0.0);
  }

  totalWeight_ = 0;
  for (double w : patterns_.weights) totalWeight_ += w;
}

void BranchSiteLikelihood::setAllBranchLengths(double t) {
  for (int k = 0; k < numBranches(); ++k) setBranchLength(k, t);
}

void BranchSiteLikelihood::buildPropagator(int eigenIdx, double t, Matrix& out,
                                           SweepWorkspace& ws) const {
  // BundledGemm stores P *transposed*: the panel product W P^T then runs as
  // the saxpy-form gemm W (P^T), which streams contiguous propagator rows
  // with FMAs instead of doing horizontal-reduction dot products — much
  // faster for large pattern panels.  The kernel writes P^T directly.
  const linalg::OutputLayout layout =
      options_.propagation == PropagationStrategy::PerSiteGemv
          ? linalg::OutputLayout::Plain
          : linalg::OutputLayout::Transposed;
  eigenSystems_[eigenIdx].transitionMatrix(t, options_.reconstruction,
                                           kernels_.ops, ws.expm, out, layout);
}

void BranchSiteLikelihood::prebuildPropagators() {
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  if (missingRows_.rows() != propSlots) missingRows_.resize(propSlots, n_);
  buildSlots_.clear();
  for (int node : branchNodes_) {
    const int branchClass = tree_.node(node).mark;
    const double t = tree_.branchLength(node);
    for (int m = 0; m < numClasses_; ++m) {
      const std::size_t slot =
          propIndex(node, activeClasses_[m].omegaFor(branchClass));
      if (propPtr_[slot]) continue;  // an earlier class reads the same slot
      if (!shard_) {
        Matrix& out = propCache_[slot];
        if (out.rows() != static_cast<std::size_t>(n_)) out.resize(n_, n_);
        propPtr_[slot] = &out;
        buildSlots_.push_back(slot);
        continue;
      }
      // A slot whose key another slot reserved earlier in this evaluation
      // hits the entry that slot's task builds.
      const PropagatorCacheShard::Key ck{static_cast<int>(slot % numOmegas_),
                                         std::bit_cast<std::uint64_t>(t)};
      auto it = shard_->entries.find(ck);
      if (it == shard_->entries.end()) {
        // A full cache is flushed at the start of the *next* evaluation:
        // entries inserted this evaluation may already be referenced through
        // propPtr_, so they must stay addressable until the sweep finishes.
        if (shard_->entries.size() >= PropagatorCacheShard::kCapacity)
          shard_->flushNextEval = true;
        it = shard_->entries.emplace(ck, Matrix(n_, n_)).first;
        ++counters_.propagatorCacheMisses;
        buildSlots_.push_back(slot);
      } else {
        ++counters_.propagatorCacheHits;
      }
      propPtr_[slot] = &it->second;
    }
  }
  counters_.propagatorBuilds += static_cast<std::int64_t>(buildSlots_.size());

  const auto build = [&](int i, int worker) {
    const std::size_t slot = buildSlots_[i];
    buildPropagator(static_cast<int>(slot % numOmegas_),
                    tree_.branchLength(static_cast<int>(slot / numOmegas_)),
                    *propPtr_[slot], workspaces_[worker]);
  };
  pool_->parallelFor(static_cast<int>(buildSlots_.size()), std::cref(build));

  // After every build: a slot that hit may read another slot's entry.
  for (int node : branchNodes_) {
    if (!leafHasMissing_[node]) continue;
    for (int e = 0; e < numOmegas_; ++e) {
      const std::size_t slot = static_cast<std::size_t>(node) * numOmegas_ + e;
      if (propPtr_[slot])
        propagateBranch(*propPtr_[slot], onesRow_.view(),
                        missingRows_.rowBlock(slot, 1));
    }
  }
}

void BranchSiteLikelihood::propagateBranch(const Matrix& prop,
                                           ConstMatrixView childCpv,
                                           MatrixView out) {
  if (options_.propagation == PropagationStrategy::PerSiteGemv) {
    // prop holds P: row h of W P^T is CodeML's per-site product P w_h.
    linalg::gemmNT(kernels_.ops, childCpv, prop.view(), out);
  } else {
    // prop holds P^T, so out(h,i) = sum_j childCpv(h,j) P^T(j,i)
    //  ==  (P w_h)_i for every h — one BLAS-3 panel product per branch.
    linalg::gemm(kernels_.ops, childCpv, prop.view(), out);
  }
}

namespace {

// The row passes' element loops: dst := src, or dst *= src, over n entries
// of a row read with the given stride.
void copyRow(double* SLIM_RESTRICT dst, const double* SLIM_RESTRICT src,
             std::size_t stride, int n) noexcept {
  if (stride == 1)
    for (int i = 0; i < n; ++i) dst[i] = src[i];
  else
    for (int i = 0; i < n; ++i) dst[i] = src[i * stride];
}

void multiplyRow(double* SLIM_RESTRICT dst, const double* SLIM_RESTRICT src,
                 std::size_t stride, int n) noexcept {
  if (stride == 1)
    for (int i = 0; i < n; ++i) dst[i] *= src[i];
  else
    for (int i = 0; i < n; ++i) dst[i] *= src[i * stride];
}

// dst := a * b: the bits of copying a and then multiplying b in.
void multiplyRows(double* SLIM_RESTRICT dst, const double* SLIM_RESTRICT a,
                  std::size_t aStride, const double* SLIM_RESTRICT b,
                  std::size_t bStride, int n) noexcept {
  if (aStride == 1 && bStride == 1)
    for (int i = 0; i < n; ++i) dst[i] = a[i] * b[i];
  else
    for (int i = 0; i < n; ++i) dst[i] = a[i * aStride] * b[i * bStride];
}

// Underflow rescue: renormalize a row whose maximum dropped below the
// threshold, adding the log of the removed factor to scaleLog.  The maximum
// over 0.0 runs in four partial maxima instead of one compare chain; it is
// the serial scan's value, since each partial starts at +0.0 like the scan
// and a max picks an operand exactly (a NaN is skipped either way).
void rescueRow(double* row, int n, double threshold,
               double& scaleLog) noexcept {
  double part[4] = {0.0, 0.0, 0.0, 0.0};
  int i = 0;
  for (; i + 4 <= n; i += 4)
    for (int j = 0; j < 4; ++j) part[j] = std::max(part[j], row[i + j]);
  for (; i < n; ++i) part[0] = std::max(part[0], row[i]);
  const double mx =
      std::max(std::max(part[0], part[1]), std::max(part[2], part[3]));
  if (mx > 0.0 && mx < threshold) {
    const double inv = 1.0 / mx;
    for (int k = 0; k < n; ++k) row[k] *= inv;
    scaleLog += std::log(mx);
  }
}

}  // namespace

BranchSiteLikelihood::ChildRows BranchSiteLikelihood::childRows(
    int child, std::size_t slot, int h0,
    const SweepWorkspace& ws) const noexcept {
  ChildRows out;
  if (!tree_.node(child).isLeaf()) {
    out.panel = ws.prod[child].data();
    return out;
  }
  const auto n = static_cast<std::size_t>(n_);
  const bool perSite = options_.propagation == PropagationStrategy::PerSiteGemv;
  out.table = propPtr_[slot]->data();
  out.missing = missingRows_.row(slot);
  out.states = leafState_[child].data() + h0;
  out.stateStep = perSite ? 1 : n;
  out.stride = perSite ? n : 1;
  return out;
}

void BranchSiteLikelihood::downPass(int m, int h0, int len,
                                    SweepWorkspace& ws) {
  const int numNodes = tree_.numNodes();
  const auto& cls = activeClasses_[m];
  const int* nodeRep = nodeRep_.data() + static_cast<std::size_t>(m) * numNodes;
  const int* edgeRep = edgeRep_.data() + static_cast<std::size_t>(m) * numNodes;
  const auto slotOf = [&](int node) {
    return propIndex(node, cls.omegaFor(tree_.node(node).mark));
  };

  // A node is computed only when its panel does not hold class m's
  // representative's values.  Each pass leaves every panel current for its
  // class, so a held product was made from the panel still below it, and
  // the pass computes exactly what class m does not share.
  for (int id : tree_.postOrder()) {
    if (tree_.node(id).isLeaf() || ws.downTag[id] == nodeRep[id]) continue;
    const auto& children = tree_.node(id).children;
    for (int child : children) {
      const bool held = ws.prodTag[child] == edgeRep[child];
      if (!held) ws.patternPropagations += len;
      ws.prodTag[child] = edgeRep[child];
      // A leaf's rows are read from its table, so a held gather only skips
      // the count.
      if (held || tree_.node(child).isLeaf()) continue;
      Matrix& store = ws.prod[child];
      if (store.rows() != static_cast<std::size_t>(blockMax_))
        store.resize(blockMax_, n_);
      // Prebuilt before the parallel region; read-only here.
      propagateBranch(*propPtr_[slotOf(child)], ws.down[child].rowBlock(0, len),
                      store.rowBlock(0, len));
    }

    Matrix& cpvStore = ws.down[id];
    if (cpvStore.rows() != static_cast<std::size_t>(blockMax_))
      cpvStore.resize(blockMax_, n_);
    auto& scaleLog = ws.sDown[id];
    scaleLog.resize(len);
    ws.children.clear();
    for (int child : children)
      ws.children.push_back(childRows(child, slotOf(child), h0, ws));
    // The first child's product row is copied and each later one multiplied
    // in, in child order (the first two in one loop): the bits of a panel
    // of ones times every child.  A leaf's scale log is zero; adding it
    // would change no bit.
    for (int h = 0; h < len; ++h) {
      double* row = cpvStore.row(h);
      const PanelRow first = ws.children[0].row(h, n_);
      if (children.size() == 1)
        copyRow(row, first.data, first.stride, n_);
      for (std::size_t c = 1; c < children.size(); ++c) {
        const PanelRow src = ws.children[c].row(h, n_);
        if (c == 1)
          multiplyRows(row, first.data, first.stride, src.data, src.stride,
                       n_);
        else
          multiplyRow(row, src.data, src.stride, n_);
      }
      double sum = 0.0;
      for (std::size_t c = 0; c < children.size(); ++c)
        if (ws.children[c].panel) sum += ws.sDown[children[c]][h];
      rescueRow(row, n_, options_.scalingThreshold, sum);
      scaleLog[h] = sum;
    }
    ws.downTag[id] = nodeRep[id];
  }
}

void BranchSiteLikelihood::planSharing() {
  const int numNodes = tree_.numNodes();
  const int root = tree_.root();
  const auto at = [numNodes](int m, int node) {
    return static_cast<std::size_t>(m) * numNodes + node;
  };
  const auto eigenOf = [&](int m, int node) {
    return omegaToEigen_[activeClasses_[m].omegaFor(tree_.node(node).mark)];
  };
  nodeRep_.assign(static_cast<std::size_t>(numClasses_) * numNodes, 0);
  edgeRep_.assign(nodeRep_.size(), 0);
  // Equality below a node is equality on every child's edge and subtree;
  // the lowest equal class is found by scanning the lower indices.  A leaf
  // has no edge below it, so every class equals class 0 there.
  for (int id : tree_.postOrder()) {
    const auto& node = tree_.node(id);
    for (int m = 0; m < numClasses_ && !node.isLeaf(); ++m) {
      int rep = m;
      for (int q = 0; q < m && rep == m; ++q)
        if (std::all_of(node.children.begin(), node.children.end(),
                        [&](int c) {
                          return edgeRep_[at(q, c)] == edgeRep_[at(m, c)];
                        }))
          rep = q;
      nodeRep_[at(m, id)] = rep;
    }
    if (id == root) continue;
    for (int m = 0; m < numClasses_; ++m) {
      int rep = m;
      for (int q = 0; q < m && rep == m; ++q)
        if (nodeRep_[at(q, id)] == nodeRep_[at(m, id)] &&
            eigenOf(q, id) == eigenOf(m, id))
          rep = q;
      edgeRep_[at(m, id)] = rep;
    }
  }

  // A class joins the group of the lowest class it reads anywhere, after
  // it; a class that reads none starts a group.
  classGroups_.clear();
  std::vector<int> groupOf(numClasses_);
  for (int m = 0; m < numClasses_; ++m) {
    int reads = m;
    for (int id : tree_.postOrder()) {
      if (!tree_.node(id).isLeaf())
        reads = std::min(reads, nodeRep_[at(m, id)]);
      if (id != root) reads = std::min(reads, edgeRep_[at(m, id)]);
    }
    groupOf[m] = reads == m ? static_cast<int>(classGroups_.size())
                            : groupOf[reads];
    if (reads == m) classGroups_.emplace_back();
    classGroups_[groupOf[m]].push_back(m);
  }
}

void BranchSiteLikelihood::forEachGroupBlock(
    const std::function<void(int, int, int, SweepWorkspace&)>& perClass) {
  const int numNodes = tree_.numNodes();
  const int numBlocks = (npat_ + blockMax_ - 1) / blockMax_;
  const int numTasks = static_cast<int>(classGroups_.size()) * numBlocks;
  const auto runTask = [&](int task, int worker) {
    SweepWorkspace& ws = workspaces_[worker];
    if (static_cast<int>(ws.down.size()) != numNodes) {
      ws.down.resize(numNodes);
      ws.prod.resize(numNodes);
      ws.sDown.resize(numNodes);
      for (int id = 0; id < numNodes; ++id)
        if (tree_.node(id).isLeaf()) ws.sDown[id].assign(blockMax_, 0.0);
    }
    // A new block: no panel holds anything yet.
    ws.downTag.assign(numNodes, -1);
    ws.prodTag.assign(numNodes, -1);
    const int h0 = (task % numBlocks) * blockMax_;
    for (int m : classGroups_[task / numBlocks])
      perClass(m, h0, std::min(blockMax_, npat_ - h0), ws);
  };
  // std::cref keeps the std::function parallelFor takes from copying (and
  // allocating) the closure; the same holds for the build loops.
  pool_->parallelFor(numTasks, std::cref(runTask));
  // Deterministic merge of the per-worker counters.
  for (auto& ws : workspaces_) {
    counters_.patternPropagations += ws.patternPropagations;
    ws.patternPropagations = 0;
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
                             shard_->builtKernels == kernels_.ops.name;
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

  // One eigendecomposition per *distinct* omega (e.g. under the model A
  // null, omega2 == omega1 == 1 shares one).  Two slots share only when
  // their scaled exchangeabilities are bit-equal too: the index also
  // aliases whole subtrees (planSharing), so it must mean equal inputs,
  // not equal labels.
  const auto sameInput = [&](int j, int k) {
    const Matrix& a = spec.scaledS[j];  // validate() checked the shapes
    return spec.omegas[j] == spec.omegas[k] &&
           std::memcmp(a.data(), spec.scaledS[k].data(),
                       a.size() * sizeof(double)) == 0;
  };
  omegaToEigen_.assign(numOmegas_, -1);
  int numEigen = 0;
  for (int k = 0; k < numOmegas_; ++k) {
    int found = -1;
    for (int j = 0; j < k; ++j)
      if (sameInput(j, k)) {
        found = omegaToEigen_[j];
        break;
      }
    omegaToEigen_[k] = found < 0 ? numEigen++ : found;
  }
  // Eigensystem e comes from the first omega slot mapped to it; each task
  // assigns only its own entry.
  eigenSystems_.clear();
  eigenSystems_.resize(numEigen);
  const auto decompose = [&](int e, int) {
    const auto k = std::find(omegaToEigen_.begin(), omegaToEigen_.end(), e) -
                   omegaToEigen_.begin();
    eigenSystems_[e] = expm::CodonEigenSystem(spec.scaledS[k], pi_);
  };
  pool_->parallelFor(numEigen, std::cref(decompose));
  counters_.eigenDecompositions += numEigen;

  if (shard_) {
    shard_->specOmegas = spec.omegas;
    shard_->specScaledS = spec.scaledS;
    shard_->builtKernels = kernels_.ops.name;
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
  planSharing();

  // Propagators depend on branch lengths and omega: resolve every slot anew.
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  if (!options_.cachePropagators) propCache_.resize(propSlots);
  propPtr_.assign(propSlots, nullptr);
  prebuildPropagators();

  // Pattern-blocked sweep: every (sharing group, pattern block) pair is an
  // independent task reading shared immutable state (tree, leaf states,
  // prebuilt propagators and missing-codon rows) and writing its own slice
  // of the class results.  Root: mix over states with the equilibrium
  // frequencies, from the root panel the down pass left current (a class
  // whose root is aliased reads its representative's).
  const int root = tree_.root();
  forEachGroupBlock([&](int m, int h0, int len, SweepWorkspace& ws) {
    downPass(m, h0, len, ws);
    const ConstMatrixView rootCpv = ws.down[root].rowBlock(0, len);
    for (int h = 0; h < len; ++h) {
      double f = 0.0;
      const double* row = rootCpv.row(h);
      for (int i = 0; i < n_; ++i) f += pi_[i] * row[i];
      classLik_[m][h0 + h] = f;
      classScaleLog_[m][h0 + h] = ws.sDown[root][h];
    }
  });
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

  // Same task shape as the likelihood sweep: every (sharing group, pattern
  // block) pair is independent.  Each class's up pass writes per-(branch,
  // pattern) contributions into its class's slab — per-pattern values are
  // independent of the block partition, and the reduction below runs in
  // fixed (branch, class, pattern) order — so the gradient, like the
  // likelihood, is bit-identical for every thread count and block size.
  const std::size_t slabSize = static_cast<std::size_t>(numB) * npat_;
  gradContrib_.assign(static_cast<std::size_t>(numClasses_) * slabSize, 0.0);
  std::vector<double>& contrib = gradContrib_;
  forEachGroupBlock([&](int m, int h0, int len, SweepWorkspace& ws) {
    downPass(m, h0, len, ws);
    // A class equal to a lower one on every edge had its slab written by
    // that class's up pass, earlier in the same task.
    if (rootRep(m) == m)
      gradientUpPass(m, h0, len, mixMaxScaleLog_, mixMixture_, ws, contrib);
  });
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
  return lnL;
}

void BranchSiteLikelihood::buildGradientPropagators() {
  const std::size_t propSlots =
      static_cast<std::size_t>(tree_.numNodes()) * numOmegas_;
  const bool bundled = options_.propagation == PropagationStrategy::BundledGemm;
  if (bundled) gradProp_.resize(propSlots);
  gradDerivT_.resize(propSlots);
  if (gradMissingDerivRows_.rows() != propSlots)
    gradMissingDerivRows_.resize(propSlots, n_);
  // The slots the last evaluation resolved — still addressable, since the
  // gradient runs on its retained state — with their tables sized here.
  const auto n = static_cast<std::size_t>(n_);
  buildSlots_.clear();
  for (std::size_t slot = 0; slot < propSlots; ++slot) {
    if (!propPtr_[slot]) continue;
    buildSlots_.push_back(slot);
    if (bundled && gradProp_[slot].rows() != n) gradProp_[slot].resize(n, n);
    if (gradDerivT_[slot].rows() != n) gradDerivT_[slot].resize(n, n);
  }
  counters_.propagatorBuilds += static_cast<std::int64_t>(buildSlots_.size());

  // A slot's tables read only its own stored propagator (P^T under
  // BundledGemm, P under PerSiteGemv), so one task does all of them.
  const auto build = [&](int i, int worker) {
    const std::size_t slot = buildSlots_[i];
    const auto node = static_cast<int>(slot / numOmegas_);
    SweepWorkspace& ws = workspaces_[worker];
    if (bundled) linalg::transposeInto(*propPtr_[slot], gradProp_[slot]);
    Matrix& dT = gradDerivT_[slot];
    eigenSystems_[slot % numOmegas_].derivativeMatrix(
        tree_.branchLength(node), kernels_.ops, ws.expm, dT,
        linalg::OutputLayout::Transposed);
    if (leafHasMissing_[node])
      linalg::gemm(kernels_.ops, onesRow_.view(), dT.view(),
                   gradMissingDerivRows_.rowBlock(slot, 1));
  };
  pool_->parallelFor(static_cast<int>(buildSlots_.size()), std::cref(build));
}

void BranchSiteLikelihood::gradientUpPass(int m, int h0, int len,
                                          std::span<const double> maxScaleLog,
                                          std::span<const double> mixture,
                                          SweepWorkspace& ws,
                                          std::span<double> contrib) {
  const int numNodes = tree_.numNodes();
  if (static_cast<int>(ws.up.size()) != numNodes) {
    ws.up.resize(numNodes);
    ws.uScale.resize(numNodes);
  }
  if (ws.outside.rows() != static_cast<std::size_t>(blockMax_)) {
    ws.outside.resize(blockMax_, n_);
    ws.deriv.resize(blockMax_, n_);
  }

  // The up pass reads class m's down pass: per node the subtree panel D and
  // its scale log, per child the propagated panel prod = P * D_child (the
  // outside recursion multiplies sibling prods together; a leaf sibling's
  // rows come from its table).  Its panel products run on the evaluator's
  // kernel table, like the down pass's; a leaf child's dP rows are gathered
  // from the dP^T-layout table.
  const int root = tree_.root();
  const auto& cls = activeClasses_[m];
  const bool perSite = options_.propagation == PropagationStrategy::PerSiteGemv;
  const auto slotOf = [&](int node) {
    return propIndex(node, cls.omegaFor(tree_.node(node).mark));
  };
  // This pass writes the slabs of m and of every class whose root
  // representative is m.
  const std::size_t slabSize = static_cast<std::size_t>(numBranches()) * npat_;

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
    const auto& children = node.children;
    ws.children.clear();
    for (int s : children)
      ws.children.push_back(childRows(s, slotOf(s), h0, ws));

    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      const int c = children[ci];
      // O_c = U ⊙ Π siblings, one pass per pattern row: U's row copied and
      // each sibling's product row multiplied in, in child order (U and the
      // first sibling in one loop).
      const MatrixView o = ws.outside.rowBlock(0, len);
      ws.oScale.resize(len);
      for (int h = 0; h < len; ++h) {
        double* row = o.row(h);
        bool first = true;
        double scale = uScale[h];
        for (std::size_t si = 0; si < children.size(); ++si) {
          if (si == ci) continue;
          const PanelRow src = ws.children[si].row(h, n_);
          if (first)
            multiplyRows(row, u.row(h), 1, src.data, src.stride, n_);
          else
            multiplyRow(row, src.data, src.stride, n_);
          first = false;
          scale += ws.sDown[children[si]][h];
        }
        if (first) copyRow(row, u.row(h), 1, n_);
        ws.oScale[h] = scale;
      }

      const std::size_t slot = slotOf(c);
      const bool leaf = tree_.node(c).isLeaf();
      const MatrixView deriv = ws.deriv.rowBlock(0, len);
      if (!leaf)
        linalg::gemm(kernels_.ops, ws.down[c].rowBlock(0, len),
                     gradDerivT_[slot].view(), deriv);
      ws.patternPropagations += len;

      const std::size_t k = static_cast<std::size_t>(nodeToBranch_[c]);
      for (int h = 0; h < len; ++h) {
        const double* dRow =
            leaf ? gatherRow(gradDerivT_[slot], gradMissingDerivRows_, slot,
                             leafState_[c][h0 + h])
                 : deriv.row(h);
        const double dval =
            linalg::dot(o.rowSpan(h), std::span<const double>(dRow, n_));
        if (dval == 0.0) continue;
        // exp() applied in two halves: a rescale deep in the tree can push
        // the scale restoration near the overflow edge before the (tiny)
        // bilinear form damps it, and the split keeps each factor finite.
        const double eHalf =
            std::exp(0.5 * (ws.sDown[c][h] + ws.oScale[h] - maxScaleLog[h0 + h]));
        const double form = (dval * eHalf) * eHalf;
        for (int q = m; q < numClasses_; ++q)
          if (rootRep(q) == m)
            contrib[q * slabSize + k * npat_ + h0 + h] =
                patterns_.weights[h0 + h] * classProp_[q] * form /
                mixture[h0 + h];
      }

      if (!leaf) {
        Matrix& upC = ws.up[c];
        if (upC.rows() != static_cast<std::size_t>(blockMax_))
          upC.resize(blockMax_, n_);
        const MatrixView uc = upC.rowBlock(0, len);
        const Matrix& p = perSite ? *propPtr_[slot] : gradProp_[slot];
        linalg::gemm(kernels_.ops, ConstMatrixView(o), p.view(), uc);
        ws.patternPropagations += len;
        auto& us = ws.uScale[c];
        us.resize(len);
        for (int h = 0; h < len; ++h) {
          double scale = ws.oScale[h];
          rescueRow(uc.row(h), n_, options_.scalingThreshold, scale);
          us[h] = scale;
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
