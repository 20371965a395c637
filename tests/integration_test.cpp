// Cross-module integration scenarios:
//   1. The paper's accuracy experiment in miniature — both engines fit the
//      same data from the same start and must land on (near-)identical lnL.
//   2. Statistical behaviour of the full pipeline — the LRT fires on data
//      simulated with strong positive selection and stays quiet on
//      H0-simulated data.
//   3. Full-text round trip: FASTA + Newick in, report out.

#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "core/report.hpp"
#include "sim/datasets.hpp"

namespace slim::core {
namespace {

using model::Hypothesis;

TEST(EngineAccuracy, BothEnginesReachTheSameLikelihood) {
  // Paper Sec. IV-1: relative lnL difference D between CodeML and
  // SlimCodeML is <= 5.5e-8 across datasets.  Our two engines share the
  // optimizer, so with equal iteration budgets D should be tiny.
  sim::Rng rng(7);
  auto tree = sim::yuleTree(6, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut = sim::evolveBranchSite(
      gc, tree, sim::defaultSimulationParams(), Hypothesis::H1, 40, pi, rng);
  const auto ca = seqio::encodeCodons(simOut.alignment, gc);

  FitOptions opts;
  opts.bfgs.maxIterations = 10;

  for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
    BranchSiteAnalysis baseline(ca, tree, EngineKind::CodemlBaseline, opts);
    BranchSiteAnalysis slim(ca, tree, EngineKind::Slim, opts);
    const double lnLBase = baseline.fit(h).lnL;
    const double lnLSlim = slim.fit(h).lnL;
    const double d = std::fabs(lnLBase - lnLSlim) / std::fabs(lnLBase);
    EXPECT_LT(d, 1e-6) << model::hypothesisName(h)
                       << ": CodeML=" << lnLBase << " Slim=" << lnLSlim;
  }
}

TEST(Detection, LrtFiresOnStrongPositiveSelection) {
  // Simulate with blatant selection (omega2 = 10, >half the sites in the
  // positive classes) on a long foreground branch, then test.
  sim::Rng rng(11);
  auto tree = tree::Tree::parseNewick(
      "((a:0.15,b:0.15):0.1,(c:0.15,d:0.15):0.1,e:0.2);");
  const int fg = tree.node(tree.findLeaf("a")).parent;
  tree.setForegroundBranch(fg);
  tree.setBranchLength(fg, 0.5);

  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  model::BranchSiteParams truth;
  truth.kappa = 2.0;
  truth.omega0 = 0.05;
  truth.omega2 = 10.0;
  truth.p0 = 0.2;
  truth.p1 = 0.2;
  const auto simOut =
      sim::evolveBranchSite(gc, tree, truth, Hypothesis::H1, 120, pi, rng);
  const auto ca = seqio::encodeCodons(simOut.alignment, gc);

  FitOptions opts;
  opts.bfgs.maxIterations = 25;
  BranchSiteAnalysis analysis(ca, tree, EngineKind::Slim, opts);
  const auto test = analysis.run();

  EXPECT_GT(test.lrt.statistic, 3.84)  // 5% critical value, df 1
      << "H0 lnL=" << test.h0.lnL << " H1 lnL=" << test.h1.lnL;
  EXPECT_GT(test.h1.params.omega2, 1.5);
}

TEST(Detection, LrtQuietOnNullData) {
  // Data simulated under H0 (omega2 = 1): the statistic should be small.
  sim::Rng rng(13);
  auto tree = sim::yuleTree(6, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  model::BranchSiteParams truth = sim::defaultSimulationParams();
  const auto simOut =
      sim::evolveBranchSite(gc, tree, truth, Hypothesis::H0, 100, pi, rng);
  const auto ca = seqio::encodeCodons(simOut.alignment, gc);

  FitOptions opts;
  opts.bfgs.maxIterations = 20;
  BranchSiteAnalysis analysis(ca, tree, EngineKind::Slim, opts);
  const auto test = analysis.run();
  // 10.83 is the 0.1% critical value: a null run should stay well below.
  EXPECT_LT(test.lrt.statistic, 10.83);
}

TEST(RoundTrip, TextFormatsInReportOut) {
  // The full user path: parse FASTA text and a marked Newick string, run,
  // and produce a report.
  const char* fasta =
      ">human\nATGGCTAAATTTCCCGGGACT\n"
      ">chimp\nATGGCTAAATTCCCCGGGACT\n"
      ">gorilla\nATGGCAAAATTTCCCGGAACT\n"
      ">orang\nATGGCTAAGTTTCCAGGGACA\n";
  const auto aln = seqio::Alignment::readFastaString(fasta);
  const auto ca = seqio::encodeCodons(aln, bio::GeneticCode::universal());
  const auto tree = tree::Tree::parseNewick(
      "((human:0.05,chimp:0.05) #1:0.03,(gorilla:0.08,orang:0.12):0.02);");

  FitOptions opts;
  opts.bfgs.maxIterations = 6;
  BranchSiteAnalysis analysis(ca, tree, EngineKind::Slim, opts);
  const auto test = analysis.run();
  const auto report = testReportString(test, EngineKind::Slim);
  EXPECT_NE(report.find("lnL"), std::string::npos);
  EXPECT_TRUE(std::isfinite(test.h0.lnL));
  EXPECT_TRUE(std::isfinite(test.h1.lnL));
  // With a 6-iteration cap the two (differently-parameterized) searches can
  // land within optimizer noise of each other; only gross inversions are
  // bugs.
  EXPECT_GE(test.h1.lnL, test.h0.lnL - 0.01);
}

TEST(Workload, CountersScaleWithTreeAndPatterns) {
  // propagatorBuilds per evaluation = 2*(B-1) + 3 under H1.
  sim::Rng rng(17);
  auto tree = sim::yuleTree(9, rng);
  const int foreground = sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut = sim::evolveBranchSite(
      gc, tree, sim::defaultSimulationParams(), Hypothesis::H1, 25, pi, rng);
  const auto ca = seqio::encodeCodons(simOut.alignment, gc);
  const auto sp = seqio::compressPatterns(ca);
  const auto freqs =
      model::estimateCodonFrequencies(ca, model::CodonFrequencyModel::F3x4);

  lik::BranchSiteLikelihood eval(ca, sp, freqs, tree, Hypothesis::H1,
                                 lik::slimOptions());
  eval.logLikelihood(sim::defaultSimulationParams());
  const int numBranches = tree.numNodes() - 1;  // 16
  EXPECT_EQ(eval.counters().propagatorBuilds, 2 * (numBranches - 1) + 3);
  EXPECT_EQ(eval.counters().evaluations, 1);
  // Site-class sharing: classes 0 and 1 propagate over every branch, while
  // 2a and 2b differ from them only on the foreground path — the marked
  // edge and every edge above it — and read their panels everywhere else.
  // Under H0 (omega2 = 1) class 2b equals class 1 on every edge, so it
  // computes nothing.  The picked foreground is internal, so no class reads
  // another's leaf gather on the path.
  ASSERT_FALSE(tree.node(foreground).isLeaf());
  long pathEdges = 0;
  for (int v = foreground; v != tree.root(); v = tree.node(v).parent)
    ++pathEdges;
  const long npat = static_cast<long>(sp.numPatterns());
  EXPECT_EQ(eval.counters().patternPropagations,
            (2LL * numBranches + 2 * pathEdges) * npat);

  lik::BranchSiteLikelihood null(ca, sp, freqs, tree, Hypothesis::H0,
                                 lik::slimOptions());
  null.logLikelihood(sim::defaultSimulationParams());
  EXPECT_EQ(null.counters().patternPropagations,
            (2LL * numBranches + pathEdges) * npat);
}

}  // namespace
}  // namespace slim::core
