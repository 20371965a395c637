// Branch-classification scans and the generic ModelSpec fit path.
//
// Three contracts under test:
//   1. tree/branch_classes.hpp: the `foreground =` selector grammar,
//      every-branch enumeration, and BranchClassMap round-trips.
//   2. core::ScanAnalysis is *bit-identical* (EXPECT_EQ on doubles) to
//      running each branch set's BranchSiteAnalysis sequentially on the
//      matching foreground-marked tree — across worker counts and both
//      ParallelPolicy settings — and a scan resumed from its checkpoint
//      skips completed "<gene>@<set>" tasks while reproducing the exact
//      uninterrupted results.
//   3. The refactor guardrail: branch-site A driven through the generic
//      (site class x branch class) assignment table is byte-identical to
//      the default path (same lnL, same gradients, same report bytes), and
//      the branch / clade-C scenarios fit end-to-end through runConfig.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "core/scan.hpp"
#include "model/model_spec.hpp"
#include "sim/datasets.hpp"
#include "tree/branch_classes.hpp"

namespace slim::core {
namespace {

using model::Hypothesis;
using model::ModelKind;
using model::ModelSpec;

// ---------- tree/branch_classes.hpp ----------

tree::Tree labeledTree() {
  return tree::Tree::parseNewick(
      "((a:0.1,b:0.2)ab:0.05,(c:0.1,d:0.1)cd:0.05);");
}

TEST(BranchClasses, EveryBranchEnumeratesNonRootBranches) {
  const auto t = labeledTree();
  const auto sets = tree::everyBranchSets(t);
  // 4 leaves + 2 labeled internal branches; the root is never a set.
  ASSERT_EQ(sets.size(), 6u);
  std::vector<std::string> names;
  for (const auto& s : sets) {
    ASSERT_EQ(s.nodes.size(), 1u);
    names.push_back(s.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"a", "ab", "b", "c", "cd", "d"}));
}

TEST(BranchClasses, SelectorGrammar) {
  const auto t = labeledTree();

  // Comma = one compound set; semicolon = independent sets.
  const auto sets = tree::resolveBranchSelector(t, "a,b; cd");
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].name, "a+b");
  EXPECT_EQ(sets[0].nodes.size(), 2u);
  EXPECT_EQ(sets[1].name, "cd");
  EXPECT_EQ(sets[1].nodes.size(), 1u);

  // "every-branch" matches the enumeration helper.
  const auto every = tree::resolveBranchSelector(t, "every-branch");
  const auto enumerated = tree::everyBranchSets(t);
  ASSERT_EQ(every.size(), enumerated.size());
  for (std::size_t i = 0; i < every.size(); ++i) {
    EXPECT_EQ(every[i].name, enumerated[i].name);
    EXPECT_EQ(every[i].nodes, enumerated[i].nodes);
  }

  // Numeric member = node index.
  const int a = t.findLeaf("a");
  ASSERT_GE(a, 0);
  const auto byIndex = tree::resolveBranchSelector(t, std::to_string(a));
  ASSERT_EQ(byIndex.size(), 1u);
  EXPECT_EQ(byIndex[0].nodes, (std::vector<int>{a}));

  // Errors are keyed with the offending token.
  try {
    tree::resolveBranchSelector(t, "zebra");
    FAIL() << "unknown label accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("zebra"), std::string::npos);
  }
  EXPECT_THROW(tree::resolveBranchSelector(t, ""), std::invalid_argument);
  EXPECT_THROW(tree::resolveBranchSelector(t, "a;;b"), std::invalid_argument);
}

TEST(BranchClasses, ClassMapRoundTripsAndForegroundSetsMark) {
  const auto marked = tree::Tree::parseNewick(
      "((a:0.1,b:0.2)#1:0.05,(c:0.1,d:0.1)#2:0.05);");
  EXPECT_EQ(tree::numBranchClasses(marked), 3);
  EXPECT_TRUE(tree::hasMarkedBranch(marked));

  const auto map = tree::BranchClassMap::fromTree(marked);
  EXPECT_EQ(map.numClasses, 3);
  auto plain = tree::Tree::parseNewick(
      "((a:0.1,b:0.2):0.05,(c:0.1,d:0.1):0.05);");
  EXPECT_EQ(tree::numBranchClasses(plain), 1);
  EXPECT_FALSE(tree::hasMarkedBranch(plain));
  map.applyTo(plain);
  EXPECT_EQ(tree::BranchClassMap::fromTree(plain).classOf, map.classOf);

  // withForegroundSet clears old marks and paints exactly the given nodes.
  const auto t = labeledTree();
  const int c = t.findLeaf("c");
  const auto fg = tree::withForegroundSet(marked, {c});
  const auto fgMap = tree::BranchClassMap::fromTree(fg);
  EXPECT_EQ(fgMap.numClasses, 2);
  for (std::size_t n = 0; n < fgMap.classOf.size(); ++n)
    EXPECT_EQ(fgMap.classOf[n], static_cast<int>(n) == c ? 1 : 0)
        << "node " << n;
}

// ---------- scan fixtures ----------

struct Gene {
  seqio::CodonAlignment codons;
  seqio::Alignment msa;  ///< Nucleotide MSA (for on-disk ctl fixtures).
  tree::Tree tree;       ///< Unmarked species tree the scan resolves against.
};

Gene makeGene(unsigned seed, int numTaxa = 5, int numCodons = 30) {
  const auto& gc = bio::GeneticCode::universal();
  sim::Rng rng(seed);
  auto tree = sim::yuleTree(numTaxa, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  model::BranchSiteParams truth;
  truth.kappa = 2.0;
  truth.omega0 = 0.1;
  truth.omega2 = 5.0;
  truth.p0 = 0.4;
  truth.p1 = 0.4;
  const auto simOut = sim::evolveBranchSite(gc, tree, truth, Hypothesis::H1,
                                            numCodons, pi, rng);
  // The scan input is the *unmarked* species tree: each set paints its own
  // foreground.
  tree::BranchClassMap cleared;
  cleared.classOf.assign(tree.numNodes(), 0);
  cleared.applyTo(tree);
  return {seqio::encodeCodons(simOut.alignment, gc), simOut.alignment,
          std::move(tree)};
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
    EXPECT_EQ(pa->lnL, pb->lnL) << label;
    EXPECT_EQ(pa->params.kappa, pb->params.kappa) << label;
    EXPECT_EQ(pa->params.omega0, pb->params.omega0) << label;
    EXPECT_EQ(pa->params.omega2, pb->params.omega2) << label;
    EXPECT_EQ(pa->params.p0, pb->params.p0) << label;
    EXPECT_EQ(pa->params.p1, pb->params.p1) << label;
    EXPECT_EQ(pa->branchLengths, pb->branchLengths) << label;
    EXPECT_EQ(pa->classOmegas, pb->classOmegas) << label;
    EXPECT_EQ(pa->iterations, pb->iterations) << label;
    EXPECT_EQ(pa->functionEvaluations, pb->functionEvaluations) << label;
  }
  EXPECT_EQ(a.lrt.statistic, b.lrt.statistic) << label;
  EXPECT_EQ(a.posteriors.positiveSelectionBySite,
            b.posteriors.positiveSelectionBySite)
      << label;
}

// ---------- ScanAnalysis ----------

TEST(ScanAnalysis, TaskNamesAreGeneMajor) {
  const auto t = labeledTree();
  BatchOptions options;
  options.fit = quickOptions();
  ScanAnalysis scan(EngineKind::Slim, t, "a; b", options);
  ASSERT_EQ(scan.numSets(), 2u);
  // Simulate a tiny gene on the labeled tree itself so taxon names match.
  const auto& gc = bio::GeneticCode::universal();
  sim::Rng rng(7);
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut = sim::evolveBranchSite(
      gc, tree::withForegroundSet(t, {t.findLeaf("a")}), {}, Hypothesis::H0,
      12, pi, rng);
  const auto codons = seqio::encodeCodons(simOut.alignment, gc);
  scan.addGene(codons, quickOptions(), "geneA");
  scan.addGene(codons, quickOptions(), "geneB");
  EXPECT_EQ(scan.numTasks(), 4u);
  EXPECT_EQ(scan.taskNames(),
            (std::vector<std::string>{"geneA@a", "geneA@b", "geneB@a",
                                      "geneB@b"}));
  EXPECT_THROW(scan.addGene(codons, quickOptions(), ""),
               std::invalid_argument);
}

TEST(ScanAnalysis, EveryBranchBitIdenticalToSequentialRunsAcrossPolicies) {
  const auto gene = makeGene(20260801);
  const auto sets = tree::everyBranchSets(gene.tree);
  ASSERT_EQ(sets.size(), 8u);  // 5 taxa -> 8 non-root branches.

  // Baseline: one single-foreground BranchSiteAnalysis per branch set,
  // sequentially, exactly as a user would run them before scans existed.
  std::vector<PositiveSelectionTest> baseline;
  for (const auto& set : sets) {
    const auto marked = tree::withForegroundSet(gene.tree, set.nodes);
    BranchSiteAnalysis analysis(gene.codons, marked, EngineKind::Slim,
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
      ScanAnalysis scan(EngineKind::Slim, gene.tree, "every-branch", options);
      scan.addGene(gene.codons, options.fit, "gene");
      const auto tests = scan.runAll();
      ASSERT_EQ(tests.size(), baseline.size());
      const std::string label = std::string("threads=") +
                                std::to_string(threads) + " policy=" +
                                parallelPolicyName(policy);
      for (std::size_t s = 0; s < sets.size(); ++s) {
        expectSameTest(tests[s], baseline[s], label + " set=" + sets[s].name);
        EXPECT_EQ(scan.taskNames()[s], "gene@" + sets[s].name) << label;
      }
    }
  }
}

// ---------- the generic-assignment-table guardrail ----------

// Branch-site A driven explicitly through ModelSpec::branchSite() must be
// byte-identical to the default FitOptions path: same lnL, same analytic
// gradients (pinned via gradient-evaluation counts and the identical
// trajectory), same report bytes.
TEST(GenericSpecPath, BranchSiteAExplicitSpecIsByteIdentical) {
  const auto gene = makeGene(42);
  const auto marked = tree::withForegroundSet(
      gene.tree, tree::everyBranchSets(gene.tree).front().nodes);

  FitOptions defaults = quickOptions();
  defaults.tuning.gradient = GradientMode::Analytic;
  FitOptions explicitSpec = defaults;
  explicitSpec.modelSpec = ModelSpec::branchSite();

  BranchSiteAnalysis a(gene.codons, marked, EngineKind::Slim, defaults);
  BranchSiteAnalysis b(gene.codons, marked, EngineKind::Slim, explicitSpec);
  auto ta = a.run();
  auto tb = b.run();
  // Wall time is the one legitimately nondeterministic report field.
  for (auto* t : {&ta, &tb}) {
    t->h0.seconds = t->h1.seconds = t->totalSeconds = 0;
  }
  expectSameTest(ta, tb, "explicit branch-site spec");
  EXPECT_EQ(ta.h1.gradientEvaluations, tb.h1.gradientEvaluations);
  EXPECT_EQ(ta.h1.gradientMode, GradientMode::Analytic);
  EXPECT_EQ(ta.h0.modelKind, ModelKind::BranchSite);
  EXPECT_TRUE(ta.h0.classOmegas.empty());

  EXPECT_EQ(testReportString(ta, EngineKind::Slim),
            testReportString(tb, EngineKind::Slim));
  std::ostringstream ja, jb;
  writeJsonTestReport(ja, ta, EngineKind::Slim, "gene");
  writeJsonTestReport(jb, tb, EngineKind::Slim, "gene");
  EXPECT_EQ(ja.str(), jb.str());
  // Branch-site JSON carries no model/classOmegas fields (byte-compat with
  // pre-refactor reports).
  EXPECT_EQ(ja.str().find("\"classOmegas\""), std::string::npos);
}

// ---------- branch / clade-C scenarios end to end ----------

class ScanConfigRun : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "slim_scan_cfg";
    std::filesystem::create_directories(dir_);
    const auto gene = makeGene(99, 4, 15);
    const auto sets = tree::everyBranchSets(gene.tree);
    const auto marked = tree::withForegroundSet(gene.tree, sets[0].nodes);
    write("gene.nwk", marked.toNewick() + "\n");
    write("plain.nwk", gene.tree.toNewick() + "\n");
    std::ofstream fasta(path("gene.fasta"));
    gene.msa.writeFasta(fasta);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  void write(const std::string& name, const std::string& text) const {
    std::ofstream(path(name)) << text;
  }

  std::filesystem::path dir_;
};

TEST_F(ScanConfigRun, BranchAndCladeCFitThroughCtl) {
  for (const char* kind : {"branch", "clade-c"}) {
    const auto cfg = Config::parseString(
        "seqfile = " + path("gene.fasta") + "\ntreefile = " +
        path("gene.nwk") + "\nmodel = " + kind +
        "\noutfile = -\nmaxIterations = 3\n");
    const auto test = runConfig(cfg).tests.front();
    SCOPED_TRACE(kind);
    EXPECT_TRUE(std::isfinite(test.h0.lnL));
    EXPECT_TRUE(std::isfinite(test.h1.lnL));
    EXPECT_GE(test.h1.lnL, test.h0.lnL);  // H0 nests in H1.
    EXPECT_DOUBLE_EQ(test.lrt.df, 1.0);   // two branch classes.
    const auto expected = std::string(kind) == "branch" ? ModelKind::Branch
                                                        : ModelKind::CladeC;
    EXPECT_EQ(test.h1.modelKind, expected);
    EXPECT_EQ(test.h1.classOmegas.size(), 2u);  // one omega per class.
    EXPECT_EQ(test.h0.classOmegas.size(), 1u);  // shared under H0.
    // The report renders without the branch-site-only sections.
    const std::string report = testReportString(test, EngineKind::Slim);
    EXPECT_EQ(report.find("p0 ="),
              expected == ModelKind::Branch ? std::string::npos
                                            : report.find("p0 ="));
  }

  // An unmarked tree is refused up front with the keyed spec error.
  const auto cfg = Config::parseString(
      "seqfile = " + path("gene.fasta") + "\ntreefile = " + path("plain.nwk") +
      "\nmodel = branch\noutfile = -\nmaxIterations = 2\n");
  EXPECT_THROW(runConfig(cfg), std::invalid_argument);
}

// ---------- scan checkpoint/resume ----------

TEST_F(ScanConfigRun, ScanResumeSkipsCompletedTasksBitIdentically) {
  const std::string base =
      "seqfile = " + path("gene.fasta") + "\ntreefile = " +
      path("plain.nwk") + "\nmodel = branch-site\nforeground = every-branch" +
      "\noutfile = " + path("out.txt") + "\ncheckpoint = " +
      path("scan.ckpt") + "\ncheckpointEverySec = 0\nmaxIterations = 3\n";

  auto cfg = Config::parseString(base);
  const auto first = runConfig(cfg);
  ASSERT_EQ(first.names.size(), 6u);  // 4 taxa -> 6 non-root branches.
  for (const auto& name : first.names)
    EXPECT_NE(name.find("gene@"), std::string::npos) << name;

  // "SIGKILL after completion, rerun with --resume": every <gene>@<set>
  // task must be restored from the checkpoint, not refit, and the restored
  // results must be bit-identical to the uninterrupted run.
  auto resumedCfg = Config::parseString(base);
  resumedCfg.resume = true;
  const auto resumed = runConfig(resumedCfg);
  ASSERT_EQ(resumed.tests.size(), first.tests.size());
  EXPECT_EQ(resumed.names, first.names);
  for (std::size_t t = 0; t < first.tests.size(); ++t) {
    expectSameTest(resumed.tests[t], first.tests[t],
                   "resume " + first.names[t]);
    EXPECT_FALSE(resumed.tests[t].h0.resumedFrom.empty()) << first.names[t];
    EXPECT_FALSE(resumed.tests[t].h1.resumedFrom.empty()) << first.names[t];
  }

  // A different selector changes the config hash: resume refuses loudly
  // rather than silently mixing results from another scan.
  auto mismatched = Config::parseString(base);
  mismatched.foreground =
      tree::everyBranchSets(loadTreeFile(path("plain.nwk"))).front().name;
  mismatched.resume = true;
  EXPECT_THROW(runConfig(mismatched), std::exception);
}

}  // namespace
}  // namespace slim::core
