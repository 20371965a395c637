// Tests for the branch-site likelihood engine.
//
// The decisive test validates the full pruning + mixture machinery against a
// brute-force reference implemented here from scratch: transition matrices
// via the Pade oracle (no eigendecomposition), pruning via a plain recursive
// definition (no pattern bundling, no scaling, no caching).  Every engine
// configuration (2 propagation strategies x {naive, scalar} kernel tables x
// 2 reconstruction paths) must agree with it — the in-vitro version of the
// paper's accuracy experiment (Sec. IV-1).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <utility>

#include "expm/pade.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/codon_model.hpp"
#include "model/site_mixture.hpp"
#include "test_util.hpp"

namespace slim::lik {
namespace {

using linalg::Flavor;
using linalg::Matrix;
using model::BranchSiteParams;
using model::Hypothesis;

const bio::GeneticCode& gc() { return bio::GeneticCode::universal(); }

struct Fixture {
  seqio::CodonAlignment alignment;
  seqio::SitePatterns patterns;
  std::vector<double> pi;
  tree::Tree tree;
};

Fixture makeFixture() {
  Fixture f;
  seqio::Alignment aln;
  // 6 codon sites incl. a repeated column, a gap and an ambiguous codon.
  aln.addSequence("a", "ATGAAATTTATGCCC---");
  aln.addSequence("b", "ATGAAGTTCATGCCCGGA");
  aln.addSequence("c", "ATGAAATTAATGCCAGGN");
  aln.addSequence("d", "ATGAAATTTATGCCTGGA");
  f.alignment = seqio::encodeCodons(aln, gc());
  f.patterns = seqio::compressPatterns(f.alignment);
  f.pi = testutil::randomFrequencies(gc().numSense(), 77);
  f.tree = tree::Tree::parseNewick(
      "((a:0.11,b:0.23) #1:0.17,(c:0.31,d:0.13):0.07);");
  return f;
}

// Site-class sharing fixtures: six taxa on the rooted tree
// (((a,b),c),(d,(e,f))) with gaps, an unknown and partly ambiguous codons,
// and #1 on a root branch (the foreground path is that edge alone), on the
// deepest leaf (the longest path) or on two edges in different clades (two
// paths meeting at the root).
enum class Placement { RootBranch, DeepLeaf, TwoClades };
constexpr Placement kPlacements[] = {Placement::RootBranch, Placement::DeepLeaf,
                                     Placement::TwoClades};

const char* placementName(Placement where) {
  switch (where) {
    case Placement::RootBranch: return "root branch";
    case Placement::DeepLeaf: return "deep leaf";
    case Placement::TwoClades: return "two clades";
  }
  return "?";
}

Fixture makeSharingFixture(Placement where) {
  Fixture f;
  seqio::Alignment aln;
  aln.addSequence("a", "ATGAAATTTATGCCC---GGTACAGCTCAA");
  aln.addSequence("b", "ATGAAGTTCATGCCCGGAGGCACAGCCCAA");
  aln.addSequence("c", "ATGAAATTAATGCCAGGNGGTACGGCTCAG");
  aln.addSequence("d", "ATGAAATTTATGCCTGGANNNACAGCACAA");
  aln.addSequence("e", "ATGCAATTTATGCCTGGAGGTACTGCACAA");
  aln.addSequence("f", "ATGCAATTTGTGCCA-GAGGTACTGCA---");
  f.alignment = seqio::encodeCodons(aln, gc());
  f.patterns = seqio::compressPatterns(f.alignment);
  f.pi = testutil::randomFrequencies(gc().numSense(), 78);
  switch (where) {
    case Placement::RootBranch:
      f.tree = tree::Tree::parseNewick(
          "(((a:0.11,b:0.23):0.05,c:0.2) #1:0.17,"
          "(d:0.31,(e:0.13,f:0.09):0.04):0.07);");
      break;
    case Placement::DeepLeaf:
      f.tree = tree::Tree::parseNewick(
          "(((a#1:0.11,b:0.23):0.05,c:0.2):0.17,"
          "(d:0.31,(e:0.13,f:0.09):0.04):0.07);");
      break;
    case Placement::TwoClades:
      f.tree = tree::Tree::parseNewick(
          "(((a:0.11,b:0.23) #1:0.05,c:0.2):0.17,"
          "(d:0.31,(e#1:0.13,f:0.09):0.04):0.07);");
      break;
  }
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

// Brute-force reference: Pade transition matrices + plain recursion.
double bruteForceLnL(const Fixture& f, const BranchSiteParams& params,
                     Hypothesis hyp) {
  const int n = gc().numSense();
  const auto qset = model::buildBranchSiteQSet(gc(), f.pi, params, hyp);
  const auto prop = model::siteClassProportions(params.p0, params.p1);

  // P(t) per (branch node, omega class) via the Pade oracle.
  std::vector<std::array<Matrix, model::kNumOmegaClasses>> pMat(
      f.tree.numNodes());
  for (int id : f.tree.branches()) {
    for (int k = 0; k < model::kNumOmegaClasses; ++k) {
      Matrix q(n, n);
      model::buildRateMatrix(qset.scaledS[k], f.pi, q);
      for (std::size_t x = 0; x < q.size(); ++x)
        q.data()[x] *= f.tree.branchLength(id);
      pMat[id][k] = expm::expmPade(q);
    }
  }

  // Leaf row lookup by name.
  auto leafRow = [&](int node) {
    for (std::size_t s = 0; s < f.alignment.names.size(); ++s)
      if (f.alignment.names[s] == f.tree.node(node).label)
        return static_cast<int>(s);
    ADD_FAILURE() << "leaf not found";
    return -1;
  };

  double lnL = 0.0;
  for (std::size_t h = 0; h < f.patterns.numPatterns(); ++h) {
    double fh = 0.0;
    for (int m = 0; m < model::kNumSiteClasses; ++m) {
      std::function<std::vector<double>(int)> partial =
          [&](int node) -> std::vector<double> {
        if (f.tree.node(node).isLeaf()) {
          std::vector<double> v(n, 0.0);
          const int state = f.patterns.patterns[h][leafRow(node)];
          if (state == seqio::kMissingState)
            v.assign(n, 1.0);
          else
            v[state] = 1.0;
          return v;
        }
        std::vector<double> v(n, 1.0);
        for (int child : f.tree.node(node).children) {
          const auto w = partial(child);
          const int om =
              model::omegaIndexFor(m, f.tree.node(child).mark != 0);
          const Matrix& p = pMat[child][om];
          for (int i = 0; i < n; ++i) {
            double s = 0.0;
            for (int j = 0; j < n; ++j) s += p(i, j) * w[j];
            v[i] *= s;
          }
        }
        return v;
      };
      const auto rootV = partial(f.tree.root());
      double fmh = 0.0;
      for (int i = 0; i < n; ++i) fmh += f.pi[i] * rootV[i];
      fh += prop[m] * fmh;
    }
    lnL += f.patterns.weights[h] * std::log(fh);
  }
  return lnL;
}

// ---------- agreement with the brute-force reference ----------

struct ConfigName {
  template <class P>
  std::string operator()(const ::testing::TestParamInfo<P>& info) const {
    const auto& [strategy, flavor, path] = info.param;
    std::string s = propagationStrategyName(strategy);
    for (auto& c : s)
      if (c == '-') c = '_';
    return s + (flavor == Flavor::Naive ? "_naive" : "_scalar") +
           (path == expm::ReconstructionPath::Gemm ? "_gemm" : "_syrk");
  }
};

// Flavor::Naive runs the naive table; Flavor::Opt is pinned to the scalar
// table with simd = scalar.
class EngineConfig
    : public ::testing::TestWithParam<std::tuple<
          PropagationStrategy, Flavor, expm::ReconstructionPath>> {
 protected:
  LikelihoodOptions options() const {
    const auto [strategy, flavor, path] = GetParam();
    LikelihoodOptions opts;
    opts.propagation = strategy;
    opts.flavor = flavor;
    opts.reconstruction = path;
    opts.simd = linalg::SimdMode::Scalar;
    return opts;
  }
};

TEST_P(EngineConfig, MatchesBruteForceH1) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, options());
  const double got = eval.logLikelihood(testParams());
  const double want = bruteForceLnL(f, testParams(), Hypothesis::H1);
  EXPECT_NEAR(got, want, 1e-8 * std::fabs(want));
}

TEST_P(EngineConfig, MatchesBruteForceH0) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H0, options());
  const double got = eval.logLikelihood(testParams());
  const double want = bruteForceLnL(f, testParams(), Hypothesis::H0);
  EXPECT_NEAR(got, want, 1e-8 * std::fabs(want));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EngineConfig,
    ::testing::Combine(::testing::Values(PropagationStrategy::PerSiteGemv,
                                         PropagationStrategy::BundledGemm),
                       ::testing::Values(Flavor::Naive, Flavor::Opt),
                       ::testing::Values(expm::ReconstructionPath::Gemm,
                                         expm::ReconstructionPath::Syrk)),
    ConfigName{});

// Sharing computes classes 2a/2b only on the foreground paths and reads
// classes 0/1 everywhere else, so a wrongly aliased node or edge shows up
// against the unshared brute force.
TEST_P(EngineConfig, MatchesBruteForceOnEveryForegroundPlacement) {
  for (Placement where : kPlacements) {
    const Fixture f = makeSharingFixture(where);
    for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
      BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree, h,
                                options());
      const double got = eval.logLikelihood(testParams());
      const double want = bruteForceLnL(f, testParams(), h);
      EXPECT_NEAR(got, want, 1e-8 * std::fabs(want))
          << placementName(where) << " " << model::hypothesisName(h);
    }
  }
}

// ---------- the paper's accuracy metric between the two presets ----------

TEST(Accuracy, BaselineAndSlimAgreeToPaperPrecision) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood baseline(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, codemlBaselineOptions());
  BranchSiteLikelihood slim(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const double l0 = baseline.logLikelihood(testParams());
  const double l1 = slim.logLikelihood(testParams());
  // Paper Sec. IV-1: relative differences D between 0 and 5.5e-8.
  const double d = std::fabs(l0 - l1) / std::fabs(l0);
  EXPECT_LT(d, 1e-9);
}

// ---------- numerical scaling ----------

TEST(Scaling, AggressiveThresholdLeavesLnLUnchanged) {
  const Fixture f = makeFixture();
  LikelihoodOptions normal = slimOptions();
  LikelihoodOptions aggressive = slimOptions();
  aggressive.scalingThreshold = 0.9;  // force rescaling at every node
  BranchSiteLikelihood a(f.alignment, f.patterns, f.pi, f.tree,
                         Hypothesis::H1, normal);
  BranchSiteLikelihood b(f.alignment, f.patterns, f.pi, f.tree,
                         Hypothesis::H1, aggressive);
  const double la = a.logLikelihood(testParams());
  const double lb = b.logLikelihood(testParams());
  EXPECT_NEAR(la, lb, 1e-9 * std::fabs(la));
}

TEST(Scaling, DeepChainTreeDoesNotUnderflow) {
  // A 60-taxon caterpillar: unscaled per-site likelihoods underflow badly.
  std::string s = "(L0:0.2,L1:0.2)";
  seqio::Alignment aln;
  std::string codon = "ATG";
  aln.addSequence("L0", codon);
  aln.addSequence("L1", codon);
  for (int i = 2; i < 60; ++i) {
    s = "(" + s + ":0.2,L" + std::to_string(i) + ":0.2)";
    aln.addSequence("L" + std::to_string(i), i % 3 == 0 ? "ATA" : "ATG");
  }
  auto t = tree::Tree::parseNewick(s + " ;");
  t.setForegroundBranch(t.findLeaf("L5"));
  const auto ca = seqio::encodeCodons(aln, gc());
  const auto sp = seqio::compressPatterns(ca);
  const auto pi = testutil::randomFrequencies(gc().numSense(), 3);
  BranchSiteLikelihood eval(ca, sp, pi, t, Hypothesis::H1, slimOptions());
  const double lnL = eval.logLikelihood(testParams());
  EXPECT_TRUE(std::isfinite(lnL));
  EXPECT_LT(lnL, 0.0);
}

// ---------- site-class sharing ----------

// The two-class mixture {class 0, class 2a} in either order: a sum of two
// terms commutes exactly, so the lnL is bit-equal unless a node or edge is
// aliased to the wrong class.  In the swapped order the background class
// reads the foreground class's panels instead of the other way round.
TEST(SiteClassSharing, SwappedClassOrderGivesTheSameLnL) {
  for (Placement where : kPlacements) {
    const Fixture f = makeSharingFixture(where);
    const auto spec = [&](bool swapped) {
      std::vector<model::MixtureClass> classes{{0.6, 0, 0}, {0.4, 0, 1}};
      if (swapped) std::swap(classes[0], classes[1]);
      return model::buildMixtureSpec(gc(), f.pi, 2.3, {0.15, 2.1}, classes);
    };
    for (const LikelihoodOptions& options :
         {slimOptions(), codemlBaselineOptions(), slimParallelOptions()}) {
      BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                                Hypothesis::H1, options);
      const double inOrder = eval.logLikelihood(spec(false));
      ASSERT_TRUE(std::isfinite(inOrder));
      EXPECT_EQ(eval.logLikelihood(spec(true)), inOrder)
          << placementName(where);
    }
  }
}

TEST(SiteClassSharing, LnLAndGradientBitIdenticalAcrossThreadsAndBlocks) {
  for (Placement where : kPlacements) {
    const Fixture f = makeSharingFixture(where);
    for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
      std::pair<double, std::vector<double>> reference;
      for (int threads : {1, 2, 8}) {
        for (int blockSize : {0, 7, 64}) {
          LikelihoodOptions options = slimParallelOptions();
          options.numThreads = threads;
          options.blockSize = blockSize;
          BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree, h,
                                    options);
          const auto got = testutil::lnLAndGradient(eval, testParams());
          ASSERT_TRUE(std::isfinite(got.first));
          if (reference.second.empty())
            reference = got;
          else
            EXPECT_EQ(got, reference)
                << placementName(where) << " " << model::hypothesisName(h)
                << " " << threads << "x" << blockSize;
        }
      }
    }
  }
}

TEST(SiteClassSharing, AnalyticGradientMatchesCentralFiniteDifferences) {
  for (Placement where : kPlacements) {
    const Fixture f = makeSharingFixture(where);
    for (Hypothesis h : {Hypothesis::H0, Hypothesis::H1}) {
      BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree, h,
                                slimOptions());
      std::vector<double> grad(eval.numBranches());
      const double lnL = eval.logLikelihoodGradientBranches(testParams(), grad);
      EXPECT_EQ(lnL, eval.logLikelihood(testParams()));
      for (int k = 0; k < eval.numBranches(); ++k) {
        const double t = eval.branchLength(k);
        const double step = 1e-6 * std::max(t, 1.0);
        eval.setBranchLength(k, t + step);
        const double fPlus = eval.logLikelihood(testParams());
        eval.setBranchLength(k, t - step);
        const double fMinus = eval.logLikelihood(testParams());
        eval.setBranchLength(k, t);
        const double fd = (fPlus - fMinus) / (2.0 * step);
        EXPECT_NEAR(grad[k], fd, 1e-6 * std::max(1.0, std::fabs(fd)))
            << placementName(where) << " " << model::hypothesisName(h)
            << " branch " << k;
      }
    }
  }
}

// ---------- structural behaviour ----------

TEST(BranchSiteLikelihoodTest, AllMissingColumnContributesZero) {
  seqio::Alignment aln;
  aln.addSequence("a", "ATG---");
  aln.addSequence("b", "ATG---");
  aln.addSequence("c", "ATG---");
  const auto ca = seqio::encodeCodons(aln, gc());
  const auto sp = seqio::compressPatterns(ca);
  const auto pi = testutil::randomFrequencies(gc().numSense(), 5);
  auto t = tree::Tree::parseNewick("(a:0.1,b:0.1,c:0.1);");
  t.setForegroundBranch(t.findLeaf("a"));

  BranchSiteLikelihood eval(ca, sp, pi, t, Hypothesis::H1, slimOptions());
  const double both = eval.logLikelihood(testParams());

  // Same data without the all-gap column.
  seqio::Alignment aln2;
  aln2.addSequence("a", "ATG");
  aln2.addSequence("b", "ATG");
  aln2.addSequence("c", "ATG");
  const auto ca2 = seqio::encodeCodons(aln2, gc());
  const auto sp2 = seqio::compressPatterns(ca2);
  BranchSiteLikelihood eval2(ca2, sp2, pi, t, Hypothesis::H1, slimOptions());
  EXPECT_NEAR(both, eval2.logLikelihood(testParams()), 1e-10);
}

TEST(BranchSiteLikelihoodTest, BranchLengthChangesLikelihood) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const double l1 = eval.logLikelihood(testParams());
  eval.setBranchLength(0, eval.branchLength(0) + 0.4);
  const double l2 = eval.logLikelihood(testParams());
  EXPECT_NE(l1, l2);
}

TEST(BranchSiteLikelihoodTest, EigenCacheCountsDistinctOmegas) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood h1(f.alignment, f.patterns, f.pi, f.tree,
                          Hypothesis::H1, slimOptions());
  h1.logLikelihood(testParams());
  EXPECT_EQ(h1.counters().eigenDecompositions, 3);  // omega0, 1, omega2

  BranchSiteLikelihood h0(f.alignment, f.patterns, f.pi, f.tree,
                          Hypothesis::H0, slimOptions());
  h0.logLikelihood(testParams());
  EXPECT_EQ(h0.counters().eigenDecompositions, 2);  // omega2 == omega1 == 1
}

// Omega slots share an eigensystem only when their scaled exchangeabilities
// are bit-equal, not merely their omega labels: a spec whose second slot
// repeats the first label over a different matrix evaluates exactly like
// the same spec with a distinct label.
TEST(BranchSiteLikelihoodTest, EigenSystemsSharedOnlyForEqualInput) {
  const Fixture f = makeFixture();
  const model::MixtureSpec distinct = model::buildMixtureSpec(
      gc(), f.pi, 2.3, {0.15, 0.7}, {{0.6, 0, 0}, {0.4, 0, 1}});
  model::MixtureSpec sameLabel = distinct;
  sameLabel.omegas[1] = sameLabel.omegas[0];
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const double want = eval.logLikelihood(distinct);
  EXPECT_EQ(eval.logLikelihood(sameLabel), want);
  EXPECT_EQ(eval.counters().eigenDecompositions, 4);  // two per evaluation
}

TEST(BranchSiteLikelihoodTest, PropagatorBuildCountsPerEvaluation) {
  // 6 branches; 5 background need {omega0, omega1}, the foreground needs
  // {omega0, omega1, omega2}: 13 under H1.  Under H0 omega2 = omega1 = 1
  // shares omega1's eigensystem, so the foreground needs 2: 12.  Each
  // gradient sweep builds one dP per (branch, eigensystem) pair too.
  const Fixture f = makeFixture();
  for (const auto& [hyp, builds] :
       {std::pair{Hypothesis::H1, 13}, std::pair{Hypothesis::H0, 12}}) {
    BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree, hyp,
                              slimOptions());
    eval.logLikelihood(testParams());
    EXPECT_EQ(eval.counters().propagatorBuilds, builds)
        << model::hypothesisName(hyp);
    std::vector<double> grad(eval.numBranches());
    eval.gradientBranchesAtLastEvaluation(grad);
    EXPECT_EQ(eval.counters().propagatorBuilds, 2 * builds)
        << model::hypothesisName(hyp);
  }
}

TEST(BranchSiteLikelihoodTest, RequiresMarkForBranchHeterogeneousMixture) {
  // Construction no longer demands a mark (branch-homogeneous mixtures —
  // site models — run on bare trees); evaluating a branch-heterogeneous
  // mixture like model A on an unmarked tree is the error.
  const Fixture f = makeFixture();
  auto bare = tree::Tree::parseNewick(
      "((a:0.11,b:0.23):0.17,(c:0.31,d:0.13):0.07);");
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, bare,
                            Hypothesis::H1, slimOptions());
  EXPECT_THROW(eval.logLikelihood(testParams()), std::invalid_argument);
}

// Leaves map one-to-one onto sequences: a leaf without a sequence, a label on
// two leaves (one sequence at two tips) and a sequence no leaf names (its
// codons would enter pi and the patterns) are each refused by name.
TEST(BranchSiteLikelihoodTest, RejectsLeafMissingFromAlignment) {
  const Fixture f = makeFixture();
  const auto expectRefused = [&](const seqio::CodonAlignment& alignment,
                                 const char* newick, const std::string& why) {
    try {
      BranchSiteLikelihood(alignment, seqio::compressPatterns(alignment), f.pi,
                           tree::Tree::parseNewick(newick), Hypothesis::H1,
                           slimOptions());
      ADD_FAILURE() << "accepted " << newick;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  expectRefused(f.alignment, "((a:0.1,zz:0.2) #1:0.1,(c:0.3,d:0.1):0.05);",
                "leaf 'zz' not found in alignment");
  expectRefused(f.alignment, "((a:0.1,a:0.2) #1:0.1,(c:0.3,d:0.1):0.05);",
                "leaf 'a' appears more than once in the tree");
  seqio::CodonAlignment extra = f.alignment;
  extra.names.push_back("zz");
  extra.states.push_back(extra.states.front());
  expectRefused(extra, "((a:0.11,b:0.23) #1:0.17,(c:0.31,d:0.13):0.07);",
                "sequence 'zz' is not a leaf of the tree");
}

// ---------- posteriors ----------

TEST(Posteriors, SumToOneAcrossClasses) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const auto post = eval.siteClassPosteriors(testParams());
  for (std::size_t h = 0; h < f.patterns.numPatterns(); ++h) {
    double total = 0;
    for (int m = 0; m < model::kNumSiteClasses; ++m) {
      EXPECT_GE(post.post[m][h], 0.0);
      total += post.post[m][h];
    }
    EXPECT_NEAR(total, 1.0, 1e-10);
    EXPECT_NEAR(post.positiveSelection[h],
                post.post[2][h] + post.post[3][h], 1e-12);
  }
}

TEST(Posteriors, ExpandedToSites) {
  const Fixture f = makeFixture();
  BranchSiteLikelihood eval(f.alignment, f.patterns, f.pi, f.tree,
                            Hypothesis::H1, slimOptions());
  const auto post = eval.siteClassPosteriors(testParams());
  ASSERT_EQ(post.positiveSelectionBySite.size(), f.alignment.numSites());
  // Sites sharing a pattern share the posterior.
  for (std::size_t i = 0; i < f.patterns.siteToPattern.size(); ++i)
    EXPECT_DOUBLE_EQ(post.positiveSelectionBySite[i],
                     post.positiveSelection[f.patterns.siteToPattern[i]]);
}

}  // namespace
}  // namespace slim::lik
