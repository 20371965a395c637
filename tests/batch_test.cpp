// Tests for the batch-first analysis API: AnalysisContext sharing,
// TaskScheduler policy decisions, and BatchAnalysis.
//
// The central contract mirrors the parallel engine's: BatchAnalysis::runAll()
// is *bit-identical* (EXPECT_EQ on doubles) to running each gene's
// BranchSiteAnalysis::run() sequentially, for every worker count and both
// ParallelPolicy settings, because tasks share nothing mutable — per-task
// cache shards, task-local RNGs — and results land in slots addressed by
// task index.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/batch.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "sim/datasets.hpp"

namespace slim::core {
namespace {

using model::Hypothesis;

struct Gene {
  seqio::CodonAlignment codons;
  std::shared_ptr<const tree::Tree> tree;
};

// A small simulated batch: 5 taxa x 30 codons per gene, alternating between
// genuine positive selection and the null.
std::vector<Gene> makeGenes(int numGenes) {
  const auto& gc = bio::GeneticCode::universal();
  std::vector<Gene> genes;
  for (int g = 0; g < numGenes; ++g) {
    sim::Rng rng(20260731 + 100 * g);
    auto tree = sim::yuleTree(5, rng);
    sim::pickForegroundBranch(tree, rng);
    const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
    model::BranchSiteParams truth;
    truth.kappa = 2.0;
    truth.omega0 = 0.1;
    truth.omega2 = g % 2 == 0 ? 6.0 : 1.0;
    truth.p0 = 0.4;
    truth.p1 = 0.4;
    const auto simOut = sim::evolveBranchSite(
        gc, tree, truth, g % 2 == 0 ? Hypothesis::H1 : Hypothesis::H0,
        /*numCodons=*/30, pi, rng);
    genes.push_back({seqio::encodeCodons(simOut.alignment, gc),
                     std::make_shared<const tree::Tree>(std::move(tree))});
  }
  return genes;
}

FitOptions quickOptions() {
  FitOptions o;
  o.bfgs.maxIterations = 3;
  return o;
}

void expectSameTest(const PositiveSelectionTest& a,
                    const PositiveSelectionTest& b, const std::string& label) {
  for (const auto& [pa, pb] :
       {std::pair{&a.h0, &b.h0}, std::pair{&a.h1, &b.h1}}) {
    const FitResult& fa = *pa;
    const FitResult& fb = *pb;
    EXPECT_EQ(fa.lnL, fb.lnL) << label;
    EXPECT_EQ(fa.params.kappa, fb.params.kappa) << label;
    EXPECT_EQ(fa.params.omega0, fb.params.omega0) << label;
    EXPECT_EQ(fa.params.omega2, fb.params.omega2) << label;
    EXPECT_EQ(fa.params.p0, fb.params.p0) << label;
    EXPECT_EQ(fa.params.p1, fb.params.p1) << label;
    EXPECT_EQ(fa.branchLengths, fb.branchLengths) << label;
    EXPECT_EQ(fa.iterations, fb.iterations) << label;
    EXPECT_EQ(fa.functionEvaluations, fb.functionEvaluations) << label;
  }
  EXPECT_EQ(a.lrt.statistic, b.lrt.statistic) << label;
  EXPECT_EQ(a.posteriors.positiveSelectionBySite,
            b.posteriors.positiveSelectionBySite)
      << label;
}

// ---------- TaskScheduler ----------

TEST(TaskScheduler, PolicyDecisions) {
  const TaskScheduler s(4);
  EXPECT_EQ(s.numWorkers(), 4);
  // Auto: task-level only when tasks can keep every worker busy.
  EXPECT_TRUE(s.useTaskLevel(8, ParallelPolicy::Auto));
  EXPECT_TRUE(s.useTaskLevel(4, ParallelPolicy::Auto));
  EXPECT_FALSE(s.useTaskLevel(2, ParallelPolicy::Auto));
  // Forced policies.
  EXPECT_TRUE(s.useTaskLevel(2, ParallelPolicy::TaskLevel));
  EXPECT_FALSE(s.useTaskLevel(100, ParallelPolicy::PatternLevel));
  // A single task never fans out.
  EXPECT_FALSE(s.useTaskLevel(1, ParallelPolicy::TaskLevel));
  // Thread budget per task follows the decision.
  EXPECT_EQ(s.taskThreads(8, ParallelPolicy::Auto), 1);
  EXPECT_EQ(s.taskThreads(2, ParallelPolicy::Auto), 4);
  EXPECT_EQ(s.taskThreads(100, ParallelPolicy::PatternLevel), 4);

  const TaskScheduler serial(1);
  EXPECT_FALSE(serial.useTaskLevel(100, ParallelPolicy::TaskLevel));
  EXPECT_EQ(serial.taskThreads(100, ParallelPolicy::TaskLevel), 1);
}

TEST(TaskScheduler, RunsEveryTaskOncePerPolicy) {
  TaskScheduler s(3);
  for (auto policy : {ParallelPolicy::Auto, ParallelPolicy::TaskLevel,
                      ParallelPolicy::PatternLevel}) {
    constexpr int kTasks = 64;
    std::vector<std::atomic<int>> runs(kTasks);
    s.run(kTasks, policy, [&](int i) { runs[i].fetch_add(1); });
    for (int i = 0; i < kTasks; ++i)
      EXPECT_EQ(runs[i].load(), 1) << parallelPolicyName(policy) << " " << i;
  }
}

TEST(TaskScheduler, SequentialModeRunsInIndexOrder) {
  TaskScheduler s(4);
  int next = 0;
  s.run(10, ParallelPolicy::PatternLevel, [&](int i) { EXPECT_EQ(i, next++); });
  EXPECT_EQ(next, 10);
}

TEST(TaskScheduler, RethrowsTaskException) {
  TaskScheduler s(2);
  EXPECT_THROW(s.run(16, ParallelPolicy::TaskLevel,
                     [](int i) {
                       if (i == 11) throw std::runtime_error("boom");
                     }),
               std::runtime_error);
}

// ---------- AnalysisContext ----------

TEST(AnalysisContext, SharesTreeAndFeedsWrapper) {
  const auto genes = makeGenes(1);
  const auto ctx = AnalysisContext::create(genes[0].codons, genes[0].tree,
                                           EngineKind::Slim, quickOptions());
  // The parsed tree is shared, not copied per context.
  EXPECT_EQ(ctx->treePtr().get(), genes[0].tree.get());
  EXPECT_GT(ctx->patterns().numPatterns(), 0u);
  EXPECT_EQ(ctx->pi().size(), 61u);

  // A wrapper over the context and a wrapper built from raw inputs agree
  // exactly (same code path underneath).
  BranchSiteAnalysis fromContext(ctx);
  BranchSiteAnalysis fromInputs(genes[0].codons, *genes[0].tree,
                                EngineKind::Slim, quickOptions());
  EXPECT_EQ(fromContext.fit(Hypothesis::H0).lnL,
            fromInputs.fit(Hypothesis::H0).lnL);
}

// ---------- BatchAnalysis: the bit-identity contract ----------

TEST(BatchAnalysis, BitIdenticalToSequentialAcrossThreadsAndPolicies) {
  const auto genes = makeGenes(6);

  // Baseline: each gene through the single-gene wrapper, sequentially.
  std::vector<PositiveSelectionTest> baseline;
  for (const auto& gene : genes) {
    BranchSiteAnalysis analysis(gene.codons, *gene.tree, EngineKind::Slim,
                                quickOptions());
    baseline.push_back(analysis.run());
  }

  for (const int threads : {1, 2, 8}) {
    for (const auto policy :
         {ParallelPolicy::TaskLevel, ParallelPolicy::PatternLevel}) {
      BatchOptions options;
      options.fit = quickOptions();
      options.fit.tuning.numThreads = threads;
      options.fit.tuning.policy = policy;
      BatchAnalysis batch(EngineKind::Slim, options);
      for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
      const auto tests = batch.runAll();

      ASSERT_EQ(tests.size(), genes.size());
      EXPECT_EQ(batch.lastRun().workers, threads);
      EXPECT_EQ(batch.lastRun().taskLevel,
                threads > 1 && policy == ParallelPolicy::TaskLevel);
      const std::string label = std::string("threads=") +
                                std::to_string(threads) + " policy=" +
                                parallelPolicyName(policy);
      for (std::size_t g = 0; g < genes.size(); ++g)
        expectSameTest(tests[g], baseline[g], label + " gene=" + std::to_string(g));
    }
  }
}

TEST(BatchAnalysis, SharedCacheReproducesIsolatedRunsExactly) {
  const auto genes = makeGenes(3);
  FitOptions cached = quickOptions();
  cached.tuning.cachePropagators = 1;

  // Isolated per-gene runs, each with its own context and private shards.
  std::vector<PositiveSelectionTest> isolated;
  for (const auto& gene : genes) {
    BranchSiteAnalysis analysis(gene.codons, *gene.tree, EngineKind::Slim,
                                cached);
    isolated.push_back(analysis.run());
  }

  // One batch sharing contexts + shards across concurrently-running tasks.
  BatchOptions options;
  options.fit = cached;
  options.fit.tuning.numThreads = 4;
  options.fit.tuning.policy = ParallelPolicy::TaskLevel;
  BatchAnalysis batch(EngineKind::Slim, options);
  for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
  const auto tests = batch.runAll();

  for (std::size_t g = 0; g < genes.size(); ++g)
    expectSameTest(tests[g], isolated[g], "cached gene=" + std::to_string(g));
  EXPECT_GT(batch.totals().propagatorCacheHits, 0);

  // And cache on/off agree bit for bit (exact keying), batch vs batch.
  BatchOptions uncachedOptions = options;
  uncachedOptions.fit.tuning.cachePropagators = 0;
  BatchAnalysis uncached(EngineKind::Slim, uncachedOptions);
  for (const auto& gene : genes) uncached.addGene(gene.codons, gene.tree);
  const auto plainTests = uncached.runAll();
  for (std::size_t g = 0; g < genes.size(); ++g)
    expectSameTest(tests[g], plainTests[g], "cache on/off gene=" + std::to_string(g));
}

// ---------- EvalCounters aggregation ----------

TEST(BatchAnalysis, CountersSumAcrossConcurrentTasks) {
  const auto genes = makeGenes(4);
  BatchOptions options;
  options.fit = quickOptions();
  options.fit.tuning.numThreads = 8;
  options.fit.tuning.cachePropagators = 1;
  options.fit.tuning.policy = ParallelPolicy::TaskLevel;
  BatchAnalysis batch(EngineKind::Slim, options);
  for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
  const auto tests = batch.runAll();

  // Per-test counters cover both fits *plus* the site scan (the scan's work
  // used to be dropped on the floor).
  lik::EvalCounters manual;
  for (const auto& t : tests) {
    EXPECT_GT(t.h0.counters.evaluations, 0);
    EXPECT_GT(t.h1.counters.evaluations, 0);
    EXPECT_GE(t.counters.evaluations,
              t.h0.counters.evaluations + t.h1.counters.evaluations + 1);
    manual += t.counters;
  }
  EXPECT_EQ(batch.totals().evaluations, manual.evaluations);
  EXPECT_EQ(batch.totals().propagatorBuilds, manual.propagatorBuilds);
  EXPECT_EQ(batch.totals().propagatorCacheHits, manual.propagatorCacheHits);
  EXPECT_EQ(batch.totals().propagatorCacheMisses, manual.propagatorCacheMisses);

  // The aggregate is deterministic: a fresh identical batch at a different
  // worker count reports identical totals.
  BatchOptions serialOptions = options;
  serialOptions.fit.tuning.numThreads = 1;
  BatchAnalysis serial(EngineKind::Slim, serialOptions);
  for (const auto& gene : genes) serial.addGene(gene.codons, gene.tree);
  serial.runAll();
  EXPECT_EQ(serial.totals().evaluations, batch.totals().evaluations);
  EXPECT_EQ(serial.totals().eigenDecompositions,
            batch.totals().eigenDecompositions);
  EXPECT_EQ(serial.totals().propagatorBuilds, batch.totals().propagatorBuilds);
  EXPECT_EQ(serial.totals().propagatorCacheHits,
            batch.totals().propagatorCacheHits);
}

// ---------- deterministic per-gene seeding ----------

TEST(BatchAnalysis, JitterSeedBaseDerivesPerGeneSeeds) {
  const auto genes = makeGenes(3);
  BatchOptions options;
  options.fit = quickOptions();
  options.jitterSeedBase = 500;
  BatchAnalysis batch(EngineKind::Slim, options);
  for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
  const auto tests = batch.runAll();

  for (std::size_t g = 0; g < genes.size(); ++g) {
    // Seeds derive from the gene index, not from any scheduling order...
    EXPECT_EQ(batch.geneOptions(static_cast<GeneHandle>(g)).startJitterSeed,
              500u + g);
    // ...so a standalone run with the resolved options reproduces the gene.
    BranchSiteAnalysis isolated(genes[g].codons, *genes[g].tree,
                                EngineKind::Slim,
                                batch.geneOptions(static_cast<GeneHandle>(g)));
    expectSameTest(tests[g], isolated.run(), "seeded gene=" + std::to_string(g));
  }
}

// ---------- batch directory enumeration ----------

// Gene order fixes gene indices — and therefore jitterSeedBase-derived
// per-gene seeds, checkpoint task keys and report ordering.  Enumeration
// must be sorted lexicographically, never readdir order (which depends on
// the host filesystem: a batch submitted on ext4 and resumed on xfs would
// silently renumber its genes).
TEST(ScanBatchDirectory, SortsLexicographicallyAndFiltersExtensions) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "slim_batch_scan_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Created deliberately out of lexicographic order, so a readdir-order
  // regression has a chance of surfacing even on filesystems that return
  // entries in creation order.
  for (const char* name : {"zeta.fasta", "alpha.phy", "mid.fa", "beta.fas",
                           "omega.phylip", "notes.txt", "a_dir.fasta.bak"})
    std::ofstream(dir / name) << ">x\nATG\n";
  fs::create_directories(dir / "sub.fasta");  // directories never count

  const auto files = scanBatchDirectory(dir.string());
  ASSERT_EQ(files.size(), 5u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  const std::vector<std::string> expected = {
      (dir / "alpha.phy").string(), (dir / "beta.fas").string(),
      (dir / "mid.fa").string(), (dir / "omega.phylip").string(),
      (dir / "zeta.fasta").string()};
  EXPECT_EQ(files, expected);

  // Errors are keyed ConfigErrors, not raw filesystem surprises.
  EXPECT_THROW(scanBatchDirectory((dir / "nope").string()), ConfigError);
  const fs::path empty = dir / "empty";
  fs::create_directories(empty);
  EXPECT_THROW(scanBatchDirectory(empty.string()), ConfigError);
  fs::remove_all(dir);
}

// ---------- reports over batch results ----------

TEST(BatchReport, SummaryAndJsonContainKeySections) {
  const auto genes = makeGenes(2);
  BatchOptions options;
  options.fit = quickOptions();
  BatchAnalysis batch(EngineKind::Slim, options);
  for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
  const auto tests = batch.runAll();
  const std::vector<std::string> names = {"geneA", "geneB"};

  std::ostringstream text;
  writeBatchSummary(text, tests, names, EngineKind::Slim, batch.totals(),
                    batch.lastRun());
  EXPECT_NE(text.str().find("Batch summary"), std::string::npos);
  EXPECT_NE(text.str().find("geneA"), std::string::npos);
  EXPECT_NE(text.str().find("engine totals"), std::string::npos);

  std::ostringstream json;
  writeJsonBatchReport(json, tests, names, EngineKind::Slim, batch.totals(),
                       batch.lastRun());
  const std::string j = json.str();
  EXPECT_NE(j.find("\"genes\":["), std::string::npos);
  EXPECT_NE(j.find("\"gene\":\"geneB\""), std::string::npos);
  EXPECT_NE(j.find("\"lrt\""), std::string::npos);
  EXPECT_NE(j.find("\"totals\""), std::string::npos);
  EXPECT_NE(j.find("\"workers\""), std::string::npos);
  // Structurally sane: every brace/bracket closes.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

}  // namespace
}  // namespace slim::core
