// Tests for the pattern-blocked parallel likelihood engine and the
// persistent propagator cache.
//
// The engine's contract is strict: the log-likelihood is *identical* (bit
// for bit, asserted with EXPECT_EQ on doubles) for every thread count, for
// every block size, and with the propagator cache on or off, because the
// per-pattern arithmetic never depends on the block partition or on which
// worker executes a block, and cached propagators are keyed on the exact
// branch-length bits.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "lik/branch_site_likelihood.hpp"
#include "seqio/alignment.hpp"
#include "sim/datasets.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace slim::lik {
namespace {

using model::BranchSiteParams;
using model::Hypothesis;

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

struct Fixture {
  seqio::CodonAlignment alignment;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

// A simulated 8-taxon x 40-codon dataset: enough patterns for several
// blocks at small block sizes, with a marked foreground branch.  `gapped`
// adds missing codons (testutil::withMissingCodons), so the leaf sweeps
// read their all-ones rows as well as one-hot gathers.
Fixture makeFixture(bool gapped = false) {
  const sim::Dataset ds = sim::makeSweepDataset(8, /*seed=*/20260731, 40);
  Fixture f;
  f.alignment = seqio::encodeCodons(
      gapped ? testutil::withMissingCodons(ds.alignment, 5) : ds.alignment,
      gc());
  f.patterns = seqio::compressPatterns(f.alignment);
  f.pi = testutil::randomFrequencies(gc().numSense(), 11);
  f.tree = ds.tree;
  return f;
}

BranchSiteParams testParams() {
  BranchSiteParams p;
  p.kappa = 2.3;
  p.omega0 = 0.15;
  p.omega2 = 2.1;
  p.p0 = 0.55;
  p.p1 = 0.30;
  return p;
}

LikelihoodOptions withThreads(LikelihoodOptions o, int threads,
                              int blockSize = 8) {
  o.numThreads = threads;
  o.blockSize = blockSize;
  return o;
}

// ---------- thread-count invariance ----------

TEST(ParallelEngine, ThreadCountInvariance) {
  const Fixture f = makeFixture();
  const BranchSiteParams p = testParams();

  BranchSiteLikelihood serial(f.alignment, f.patterns, f.pi, f.tree,
                              Hypothesis::H1, withThreads(slimOptions(), 1));
  const double want = serial.logLikelihood(p);
  ASSERT_TRUE(std::isfinite(want));

  for (int threads : {2, 8}) {
    BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                              Hypothesis::H1,
                              withThreads(slimOptions(), threads));
    EXPECT_EQ(eval.numThreads(), threads);
    // Bit-identical, not merely close: the reduction order is fixed.
    EXPECT_EQ(eval.logLikelihood(p), want) << "threads = " << threads;
  }
}

// Both presets' kernel tables (slim: the resolved SIMD table; codeml: the
// naive table) under both propagation strategies.
std::vector<LikelihoodOptions> presetsByStrategy() {
  std::vector<LikelihoodOptions> out;
  for (const LikelihoodOptions& preset :
       {slimOptions(), codemlBaselineOptions()})
    for (auto strategy :
         {PropagationStrategy::PerSiteGemv, PropagationStrategy::BundledGemm}) {
      LikelihoodOptions o = preset;
      o.propagation = strategy;
      out.push_back(o);
    }
  return out;
}

std::string label(const LikelihoodOptions& o) {
  return std::string(o.flavor == linalg::Flavor::Naive ? "codeml " : "slim ") +
         propagationStrategyName(o.propagation);
}

TEST(ParallelEngine, ThreadCountInvarianceAllStrategies) {
  const BranchSiteParams p = testParams();
  for (bool gapped : {false, true}) {
    const Fixture f = makeFixture(gapped);
    for (const LikelihoodOptions& base : presetsByStrategy()) {
      BranchSiteLikelihood serial(f.alignment, f.patterns, f.pi, f.tree,
                                  Hypothesis::H1, withThreads(base, 1));
      BranchSiteLikelihood threaded(f.alignment, f.patterns, f.pi, f.tree,
                                    Hypothesis::H1, withThreads(base, 4));
      EXPECT_EQ(threaded.logLikelihood(p), serial.logLikelihood(p))
          << label(base) << " gapped = " << gapped;
      EXPECT_EQ(testutil::lnLAndGradient(threaded, p),
                testutil::lnLAndGradient(serial, p))
          << label(base) << " gapped = " << gapped;
    }
  }
}

TEST(ParallelEngine, BlockSizeInvariance) {
  const BranchSiteParams p = testParams();
  for (bool gapped : {false, true}) {
    const Fixture f = makeFixture(gapped);
    for (const LikelihoodOptions& base : presetsByStrategy()) {
      BranchSiteLikelihood whole(f.alignment, f.patterns, f.pi, f.tree,
                                 Hypothesis::H1,
                                 withThreads(base, 1, /*blockSize=*/0));
      const double want = whole.logLikelihood(p);
      const auto wantGrad = testutil::lnLAndGradient(whole, p);
      for (int blockSize : {1, 3, 8, 64}) {
        BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                                  Hypothesis::H1,
                                  withThreads(base, 2, blockSize));
        EXPECT_EQ(eval.logLikelihood(p), want)
            << label(base) << " blockSize = " << blockSize
            << " gapped = " << gapped;
        EXPECT_EQ(testutil::lnLAndGradient(eval, p), wantGrad)
            << label(base) << " blockSize = " << blockSize
            << " gapped = " << gapped;
      }
    }
  }
}

TEST(ParallelEngine, PosteriorsThreadInvariance) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood serial(f.alignment, f.patterns, f.pi, f.tree,
                              Hypothesis::H1, withThreads(slimOptions(), 1));
  BranchSiteLikelihood threaded(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, withThreads(slimOptions(), 8));
  const auto a = serial.siteClassPosteriors(testParams());
  const auto b = threaded.siteClassPosteriors(testParams());
  ASSERT_EQ(a.post.size(), b.post.size());
  for (std::size_t m = 0; m < a.post.size(); ++m)
    for (std::size_t h = 0; h < a.post[m].size(); ++h)
      EXPECT_EQ(a.post[m][h], b.post[m][h]);
}

TEST(ParallelEngine, CountersMatchSerialEngine) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood serial(f.alignment, f.patterns, f.pi, f.tree,
                              Hypothesis::H1, withThreads(slimOptions(), 1));
  BranchSiteLikelihood threaded(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, withThreads(slimOptions(), 4));
  serial.logLikelihood(testParams());
  threaded.logLikelihood(testParams());
  EXPECT_EQ(serial.counters().propagatorBuilds,
            threaded.counters().propagatorBuilds);
  EXPECT_EQ(serial.counters().eigenDecompositions,
            threaded.counters().eigenDecompositions);
  EXPECT_EQ(serial.counters().patternPropagations,
            threaded.counters().patternPropagations);
}

// The build phases resolve every (branch, eigensystem) slot serially and
// build on the workers.  Two branches of equal length share a cache key, so
// the second slot hits the entry the first slot's task builds, and the
// gapped leaves' missing-codon rows are read from such shared entries after
// the builds.  Every thread count reproduces the 1-thread results and
// counters, cache on or off.
TEST(ParallelEngine, TwoPhaseBuildsMatchOneThread) {
  Fixture f = makeFixture(/*gapped=*/true);
  std::vector<int> leaves;  // background leaves, every one of them gapped
  for (int node : f.tree.branches())
    if (f.tree.node(node).isLeaf() && f.tree.node(node).mark == 0)
      leaves.push_back(node);
  ASSERT_GE(leaves.size(), 2u);
  f.tree.setBranchLength(leaves[1], f.tree.branchLength(leaves[0]));
  const BranchSiteParams p = testParams();

  std::pair<double, std::vector<double>> want;
  SiteClassPosteriors wantPost;
  for (bool cache : {false, true}) {
    EvalCounters wantCounters;
    for (int threads : {1, 2, 8}) {
      LikelihoodOptions o = withThreads(slimOptions(), threads, /*blockSize=*/7);
      o.cachePropagators = cache;
      BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, o);
      const double lnL = eval.logLikelihood(p);
      if (cache) {
        // Each background slot of the second leaf hits its twin's entry.
        EXPECT_GE(eval.counters().propagatorCacheHits, 2) << threads;
      }
      const auto got = testutil::lnLAndGradient(eval, p);
      const SiteClassPosteriors post = eval.siteClassPosteriors(p);
      EXPECT_EQ(got.first, lnL);
      const std::string label = std::string(cache ? "cached" : "uncached") +
                                " threads=" + std::to_string(threads);
      if (!cache && threads == 1) {
        want = got;
        wantPost = post;
      } else {
        EXPECT_EQ(got, want) << label;
        EXPECT_EQ(post.post, wantPost.post) << label;
        EXPECT_EQ(post.positiveSelection, wantPost.positiveSelection) << label;
      }
      if (threads == 1)
        wantCounters = eval.counters();
      else
        testutil::expectSameCounters(eval.counters(), wantCounters, label);
    }
  }
}

// ---------- propagator cache ----------

TEST(PropagatorCache, CachedAndUncachedAgreeExactly) {
  const Fixture f = makeFixture();
  LikelihoodOptions cached = withThreads(slimOptions(), 2);
  cached.cachePropagators = true;
  BranchSiteLikelihood plain(f.alignment, f.patterns, f.pi, f.tree,
                             Hypothesis::H1, withThreads(slimOptions(), 2));
  BranchSiteLikelihood withCache(f.alignment, f.patterns, f.pi, f.tree,
                                 Hypothesis::H1, cached);

  BranchSiteParams p = testParams();
  EXPECT_EQ(withCache.logLikelihood(p), plain.logLikelihood(p));

  // Repeated evaluation (all propagators hit the cache).
  EXPECT_EQ(withCache.logLikelihood(p), plain.logLikelihood(p));

  // Move one branch length: one branch misses, the rest hit.
  plain.setBranchLength(0, plain.branchLength(0) + 0.05);
  withCache.setBranchLength(0, withCache.branchLength(0) + 0.05);
  EXPECT_EQ(withCache.logLikelihood(p), plain.logLikelihood(p));

  // Move a substitution parameter: the cache flushes, results still agree.
  p.kappa = 3.0;
  EXPECT_EQ(withCache.logLikelihood(p), plain.logLikelihood(p));
}

TEST(PropagatorCache, HitsOnRepeatedEvaluation) {
  const Fixture f = makeFixture();
  LikelihoodOptions opts = withThreads(slimOptions(), 1);
  opts.cachePropagators = true;
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, opts);

  eval.logLikelihood(testParams());
  const auto first = eval.counters();
  EXPECT_GT(first.propagatorCacheMisses, 0);
  EXPECT_EQ(first.propagatorCacheHits, 0);
  EXPECT_EQ(first.propagatorCacheMisses, first.propagatorBuilds);

  // Same parameters, same branch lengths: every propagator is served from
  // the cache and nothing is rebuilt (not even eigensystems).
  eval.logLikelihood(testParams());
  const auto second = eval.counters();
  EXPECT_EQ(second.propagatorBuilds, first.propagatorBuilds);
  EXPECT_EQ(second.eigenDecompositions, first.eigenDecompositions);
  EXPECT_EQ(second.propagatorCacheHits, first.propagatorCacheMisses);
}

TEST(PropagatorCache, SingleBranchMoveRebuildsOnlyThatBranch) {
  const Fixture f = makeFixture();
  LikelihoodOptions opts = withThreads(slimOptions(), 1);
  opts.cachePropagators = true;
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, opts);

  eval.logLikelihood(testParams());
  const auto before = eval.counters();

  // The finite-difference-gradient access pattern: one coordinate moves.
  eval.setBranchLength(0, eval.branchLength(0) * 1.01);
  eval.logLikelihood(testParams());
  const auto after = eval.counters();

  // A background branch carries two distinct omega classes (omega0, omega1),
  // a foreground branch three; everything else must hit.
  const std::int64_t rebuilt = after.propagatorBuilds - before.propagatorBuilds;
  EXPECT_GE(rebuilt, 1);
  EXPECT_LE(rebuilt, 3);
  EXPECT_GT(after.propagatorCacheHits, before.propagatorCacheHits);
}

TEST(PropagatorCache, ParameterChangeFlushesCache) {
  const Fixture f = makeFixture();
  LikelihoodOptions opts = withThreads(slimOptions(), 1);
  opts.cachePropagators = true;
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, opts);

  BranchSiteParams p = testParams();
  eval.logLikelihood(p);
  const std::size_t entries = eval.cachedPropagators();
  EXPECT_GT(entries, 0u);

  p.kappa *= 1.1;  // changes every eigensystem
  eval.logLikelihood(p);
  const auto c = eval.counters();
  // All propagators were rebuilt against the fresh eigensystems.
  EXPECT_EQ(c.propagatorCacheHits, 0);
  EXPECT_EQ(eval.cachedPropagators(), entries);
}

// ---------- thread pool ----------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.numThreads(), 4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> runs(kTasks);
  pool.parallelFor(kTasks, [&](int task, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    runs[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossTaskSets) {
  support::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallelFor(round + 1,
                     [&](int, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), round + 1);
  }
}

TEST(ThreadPool, PropagatesTaskException) {
  support::ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(100,
                                [](int task, int) {
                                  if (task == 57)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> count{0};
  pool.parallelFor(10, [&](int, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1);
  int serial = 0;
  pool.parallelFor(25, [&](int task, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(task, serial++);  // strictly in order: no workers involved
  });
  EXPECT_EQ(serial, 25);
}

// Death-test child: VmSize + 256 MB holds far fewer than 100000 thread
// stacks.  Exits 0 when the pool throws; the alarm ends a hang.
[[noreturn]] void startPoolPastAddressSpace() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line) && line.rfind("VmSize:", 0) != 0) {}
  const rlim_t limit = (std::stoull(line.substr(7)) << 10) + (256ull << 20);
  const rlimit cap{limit, limit};
  setrlimit(RLIMIT_AS, &cap);
  alarm(10);
  try {
    support::ThreadPool pool(100000);
  } catch (const std::system_error&) {
    _exit(0);
  }
  _exit(1);
}

TEST(ThreadPool, SpawnFailureThrowsInsteadOfHanging) {
#ifdef SLIM_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes reserve their address space up front";
#else
  EXPECT_EXIT(startPoolPastAddressSpace(), ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace slim::lik
