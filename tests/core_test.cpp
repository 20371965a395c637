// Tests for the top-level analysis API: the parameter layout, fitting, LRT
// plumbing and report output.  Fits here use tiny datasets and tight
// iteration caps to stay fast; the statistically meaningful end-to-end
// scenarios live in integration_test.cpp.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>

#include "core/analysis.hpp"
#include "core/objective.hpp"
#include "core/report.hpp"
#include "opt/transforms.hpp"
#include "sim/datasets.hpp"
#include "sim/rng.hpp"

namespace slim::core {
namespace {

using model::Hypothesis;

struct SmallCase {
  seqio::CodonAlignment alignment;
  tree::Tree tree;
};

SmallCase makeSmallCase() {
  // 5 species, 30 codons, simulated with positive selection.
  sim::Rng rng(2024);
  auto tree = sim::yuleTree(5, rng);
  sim::pickForegroundBranch(tree, rng);
  const auto& gc = bio::GeneticCode::universal();
  const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
  const auto simOut =
      sim::evolveBranchSite(gc, tree, sim::defaultSimulationParams(),
                            Hypothesis::H1, 30, pi, rng);
  return {seqio::encodeCodons(simOut.alignment, gc), std::move(tree)};
}

FitOptions quickOptions(int maxIter = 8) {
  FitOptions o;
  o.bfgs.maxIterations = maxIter;
  return o;
}

TEST(Engine, NamesAndOptionsPresets) {
  EXPECT_STREQ(engineName(EngineKind::CodemlBaseline), "CodeML");
  EXPECT_STREQ(engineName(EngineKind::Slim), "SlimCodeML");
  const auto base = engineOptions(EngineKind::CodemlBaseline);
  EXPECT_EQ(base.flavor, linalg::Flavor::Naive);
  EXPECT_EQ(base.reconstruction, expm::ReconstructionPath::Gemm);
  EXPECT_EQ(base.propagation, lik::PropagationStrategy::PerSiteGemv);
  const auto slim = engineOptions(EngineKind::Slim);
  EXPECT_EQ(slim.flavor, linalg::Flavor::Opt);
  EXPECT_EQ(slim.reconstruction, expm::ReconstructionPath::Syrk);
  EXPECT_EQ(slim.propagation, lik::PropagationStrategy::BundledGemm);
}

// ---------- the parameter layout ----------

// Checkpoints store optimization vectors and BFGS trajectories depend on
// them, so every (kind, hypothesis) row is pinned coordinate by coordinate
// against vectors assembled by hand from the transforms.  EXPECT_EQ holds on
// any host: both sides run the same transform arithmetic.

const model::BranchSiteParams kLayoutParams{2.5, 0.2, 3.0, 0.4, 0.35};
// The third length sits below the 1e-6 floor pack() clamps to.
const std::vector<double> kLayoutLengths{0.05, 0.3, 1e-9, 2.0};

struct LayoutRow {
  model::ModelSpec spec;
  Hypothesis h;
  std::vector<double> classOmegas;
  std::vector<double> head;  ///< Expected coordinates before the lengths.
};

std::vector<LayoutRow> layoutRows() {
  const auto logPos = opt::Transform::logAbove(0.0);
  const auto unit = opt::Transform::logistic(0.0, 1.0);
  const auto aboveOne = opt::Transform::logAbove(1.0);
  const auto& p = kLayoutParams;
  const auto [u, v] = opt::simplex2ToInternal(p.p0, p.p1);
  const double k = logPos.toInternal(p.kappa), w0 = unit.toInternal(p.omega0),
               w2 = aboveOne.toInternal(p.omega2);
  const std::vector<double> omegas{0.3, 1.7, 4.0};
  const double c0 = logPos.toInternal(0.3), c1 = logPos.toInternal(1.7),
               c2 = logPos.toInternal(4.0);
  const auto branch = model::ModelSpec::branch(3);
  const auto cladeC = model::ModelSpec::cladeC(3);
  return {
      {model::ModelSpec::branchSite(), Hypothesis::H0, {}, {k, w0, u, v}},
      {model::ModelSpec::branchSite(), Hypothesis::H1, {}, {k, w0, w2, u, v}},
      {branch, Hypothesis::H0, {0.3}, {k, c0}},
      {branch, Hypothesis::H1, omegas, {k, c0, c1, c2}},
      {cladeC, Hypothesis::H0, {0.3}, {k, w0, c0, u, v}},
      {cladeC, Hypothesis::H1, omegas, {k, w0, c0, c1, c2, u, v}},
      {model::ModelSpec::site(), Hypothesis::H0, {},
       {k, w0, unit.toInternal(p.p0)}},
      {model::ModelSpec::site(), Hypothesis::H1, {}, {k, w0, w2, u, v}},
  };
}

TEST(ParameterLayout, PacksEveryRowExactly) {
  const auto branch = opt::Transform::logistic(0.0, 50.0);
  for (const LayoutRow& row : layoutRows()) {
    const std::string name = std::string(model::modelKindName(row.spec.kind)) +
                             "/" + model::hypothesisName(row.h);
    const ParameterLayout layout(row.spec, row.h, 4);
    std::vector<double> want = row.head;
    for (const double t : kLayoutLengths)
      want.push_back(branch.toInternal(std::max(t, 1e-6)));
    const std::vector<double> x =
        layout.pack({kLayoutParams, row.classOmegas}, kLayoutLengths);
    EXPECT_EQ(x, want) << name;
    EXPECT_EQ(layout.dim(), static_cast<int>(want.size())) << name;
    EXPECT_EQ(layout.branchOffset(), static_cast<int>(row.head.size()))
        << name;

    // Round trip through unpack: every parameter the row carries comes back.
    const auto near = [&name](double got, double expected) {
      EXPECT_NEAR(got, expected, 1e-12 * std::max(1.0, std::fabs(expected)))
          << name;
    };
    const ModelPoint back = layout.unpack(x);
    near(back.params.kappa, kLayoutParams.kappa);
    ASSERT_EQ(back.classOmegas.size(), row.classOmegas.size()) << name;
    for (std::size_t c = 0; c < row.classOmegas.size(); ++c)
      near(back.classOmegas[c], row.classOmegas[c]);
    for (int b = 0; b < 4; ++b)
      near(layout.branchLength(x, b), std::max(kLayoutLengths[b], 1e-6));
    const auto kind = row.spec.kind;
    if (kind == model::ModelKind::Branch) continue;  // kappa + omegas only
    near(back.params.omega0, kLayoutParams.omega0);
    near(back.params.p0, kLayoutParams.p0);
    if (kind == model::ModelKind::Site && row.h == Hypothesis::H0)
      EXPECT_EQ(back.params.p1, 1.0 - back.params.p0) << name;  // M1a
    else
      near(back.params.p1, kLayoutParams.p1);
    if (kind == model::ModelKind::BranchSite ||
        kind == model::ModelKind::Site) {
      if (row.h == Hypothesis::H1)
        near(back.params.omega2, kLayoutParams.omega2);
      else
        EXPECT_EQ(back.params.omega2, 1.0) << name;  // H0 pins omega2
    }
  }
}

TEST(ParameterLayout, StartValuesAndJitterDrawOrder) {
  const std::uint64_t seed = 5;
  const auto jitterFrom = [](sim::Rng& rng) {
    return [&rng](double v) { return v * std::exp(rng.uniform(-0.1, 0.1)); };
  };
  const std::vector<double> lengths{0.05, 0.3, 4e-4, 2.0};
  const auto& init = kLayoutParams;

  // Unseeded: the branch model's background class starts at omega0, every
  // other class omega at omega2.
  const ParameterLayout branch(model::ModelSpec::branch(3), Hypothesis::H1, 4);
  EXPECT_EQ(branch.start(init, lengths, 0),
            branch.pack({init, {init.omega0, init.omega2, init.omega2}},
                        lengths));

  // Branch-site H0: kappa, omega0, then omega2 — drawn although H0 has no
  // omega2 coordinate — then every branch length.
  {
    sim::Rng rng(seed);
    const auto j = jitterFrom(rng);
    ModelPoint want{init, {}};
    want.params.kappa = j(init.kappa);
    want.params.omega0 = std::min(0.95, j(init.omega0));
    (void)j(init.omega2 - 1.0 + 0.1);
    std::vector<double> t;
    for (const double len : lengths) t.push_back(j(std::max(len, 1e-3)));
    const ParameterLayout layout(model::ModelSpec::branchSite(),
                                 Hypothesis::H0, 4);
    EXPECT_EQ(layout.start(init, lengths, seed), layout.pack(want, t));
  }
  // Clade C H1 (no omega2): kappa, omega0, each divergent omega (all
  // starting at omega2), then every branch length.
  {
    sim::Rng rng(seed);
    const auto j = jitterFrom(rng);
    ModelPoint want{init, {}};
    want.params.kappa = j(init.kappa);
    want.params.omega0 = std::min(0.95, j(init.omega0));
    for (int c = 0; c < 3; ++c) want.classOmegas.push_back(j(init.omega2));
    std::vector<double> t;
    for (const double len : lengths) t.push_back(j(std::max(len, 1e-3)));
    const ParameterLayout layout(model::ModelSpec::cladeC(3), Hypothesis::H1,
                                 4);
    EXPECT_EQ(layout.start(init, lengths, seed), layout.pack(want, t));
  }
}

TEST(Fit, ImprovesOverStartAndRespectsCap) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(5));
  const auto fit = analysis.fit(Hypothesis::H0);
  EXPECT_TRUE(std::isfinite(fit.lnL));
  EXPECT_LT(fit.lnL, 0.0);
  EXPECT_LE(fit.iterations, 5);
  EXPECT_GT(fit.functionEvaluations, 0);
  EXPECT_GT(fit.seconds, 0.0);
  EXPECT_EQ(fit.hypothesis, Hypothesis::H0);
  // Fitted parameters respect their domains.
  EXPECT_GT(fit.params.kappa, 0.0);
  EXPECT_GT(fit.params.omega0, 0.0);
  EXPECT_LT(fit.params.omega0, 1.0);
  EXPECT_DOUBLE_EQ(fit.params.omega2, 1.0);  // H0 pins omega2
  EXPECT_GT(fit.params.p0, 0.0);
  EXPECT_LT(fit.params.p0 + fit.params.p1, 1.0);
  for (double t : fit.branchLengths) EXPECT_GE(t, 0.0);
  EXPECT_EQ(fit.branchLengths.size(), 8u);  // 2*5 - 2 branches
}

TEST(Fit, H1EstimatesOmega2AboveOne) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(5));
  const auto fit = analysis.fit(Hypothesis::H1);
  EXPECT_GE(fit.params.omega2, 1.0);
  EXPECT_EQ(fit.hypothesis, Hypothesis::H1);
}

TEST(Fit, MoreIterationsNeverWorse) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis a2(sc.alignment, sc.tree, EngineKind::Slim,
                        quickOptions(2));
  BranchSiteAnalysis a10(sc.alignment, sc.tree, EngineKind::Slim,
                         quickOptions(10));
  const double l2 = a2.fit(Hypothesis::H0).lnL;
  const double l10 = a10.fit(Hypothesis::H0).lnL;
  EXPECT_GE(l10, l2 - 1e-9);
}

TEST(Fit, DeterministicAcrossRuns) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis a(sc.alignment, sc.tree, EngineKind::Slim,
                       quickOptions(4));
  BranchSiteAnalysis b(sc.alignment, sc.tree, EngineKind::Slim,
                       quickOptions(4));
  EXPECT_DOUBLE_EQ(a.fit(Hypothesis::H0).lnL, b.fit(Hypothesis::H0).lnL);
}

TEST(Fit, JitterSeedChangesStartButStaysFeasible) {
  const auto sc = makeSmallCase();
  auto opts = quickOptions(3);
  opts.startJitterSeed = 7;
  BranchSiteAnalysis a(sc.alignment, sc.tree, EngineKind::Slim, opts);
  opts.startJitterSeed = 8;
  BranchSiteAnalysis b(sc.alignment, sc.tree, EngineKind::Slim, opts);
  const double la = a.fit(Hypothesis::H0).lnL;
  const double lb = b.fit(Hypothesis::H0).lnL;
  EXPECT_TRUE(std::isfinite(la));
  EXPECT_TRUE(std::isfinite(lb));
  // Different jitter, (almost surely) different trajectories.
  EXPECT_NE(la, lb);
}

TEST(Fit, InitialBranchLengthOverride) {
  const auto sc = makeSmallCase();
  auto opts = quickOptions(0);  // 0 iterations: report the start point
  opts.bfgs.maxIterations = 0;
  opts.useTreeBranchLengths = false;
  opts.initialBranchLength = 0.2;
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim, opts);
  const auto fit = analysis.fit(Hypothesis::H0);
  for (double t : fit.branchLengths) EXPECT_NEAR(t, 0.2, 1e-9);
}

TEST(Run, ProducesCoherentTest) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(6));
  const auto test = analysis.run();
  // Nested models: H1 at least as good (same start, same optimizer family).
  EXPECT_GE(test.h1.lnL, test.h0.lnL - 1e-6);
  EXPECT_GE(test.lrt.statistic, 0.0);
  EXPECT_LE(test.lrt.pChi2, 1.0);
  EXPECT_GE(test.lrt.pChi2, 0.0);
  EXPECT_NEAR(test.lrt.statistic, 2.0 * (test.h1.lnL - test.h0.lnL), 1e-9);
  EXPECT_NEAR(test.totalSeconds, test.h0.seconds + test.h1.seconds, 1e-9);
  // Posteriors expanded to all 30 sites.
  EXPECT_EQ(test.posteriors.positiveSelectionBySite.size(), 30u);
}

TEST(Analysis, PiComesFromRequestedModel) {
  const auto sc = makeSmallCase();
  FitOptions equal = quickOptions();
  equal.frequencyModel = model::CodonFrequencyModel::Equal;
  BranchSiteAnalysis a(sc.alignment, sc.tree, EngineKind::Slim, equal);
  for (double f : a.pi()) EXPECT_DOUBLE_EQ(f, 1.0 / 61.0);

  BranchSiteAnalysis b(sc.alignment, sc.tree, EngineKind::Slim,
                       quickOptions());
  double maxDiff = 0;
  for (double f : b.pi()) maxDiff = std::max(maxDiff, std::fabs(f - 1.0 / 61));
  EXPECT_GT(maxDiff, 1e-4);  // F3x4 on real-ish data is not uniform
}

TEST(Report, ContainsKeySections) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(3));
  const auto test = analysis.run();
  const std::string report = testReportString(test, EngineKind::Slim);
  EXPECT_NE(report.find("SlimCodeML"), std::string::npos);
  EXPECT_NE(report.find("H0"), std::string::npos);
  EXPECT_NE(report.find("H1"), std::string::npos);
  EXPECT_NE(report.find("LRT"), std::string::npos);
  EXPECT_NE(report.find("kappa"), std::string::npos);
  EXPECT_NE(report.find("omega2"), std::string::npos);
}

TEST(Report, FitReportMentionsConvergenceState) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(1));
  const auto fit = analysis.fit(Hypothesis::H0);
  std::ostringstream os;
  writeFitReport(os, fit);
  EXPECT_NE(os.str().find("iterations"), std::string::npos);
  EXPECT_NE(os.str().find("simd = "), std::string::npos);
}

// ---------- JSON well-formedness ----------

// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, true/false/
// null), rejects everything else.  Enough to prove the reports emit valid
// JSON even for hostile inputs — no external parser dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              return false;
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }
  bool literal(std::string_view want) {
    if (s_.substr(pos_, want.size()) != want) return false;
    pos_ += want.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(Report, JsonSurvivesHostileStringsRoundTrip) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(2));
  const auto test = analysis.run();

  // A gene name with every dangerous class of character: quote, backslash,
  // newline, tab, and raw control bytes (what a seqfile path or tree label
  // can drag into the report).
  const std::string hostile = std::string("ge\"ne\\pa\th\n") + '\x01' +
                              '\x1f' + "\r\x7f";
  std::ostringstream os;
  writeJsonTestReport(os, test, EngineKind::Slim, hostile);
  const std::string json = os.str();

  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  // Control characters must appear escaped, never raw.
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\u000d"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  // The resolved SIMD flavor is recorded.
  EXPECT_NE(json.find("\"simd\":"), std::string::npos);

  // The same reports on a shared stream that a text report left in
  // std::fixed state (regression guard for stream-format leakage).
  std::ostringstream mixed;
  writeTestReport(mixed, test, EngineKind::Slim);
  writeJsonTestReport(mixed, test, EngineKind::Slim, hostile);
  const std::string tail = mixed.str();
  const auto brace = tail.find("{\"engine\"");
  ASSERT_NE(brace, std::string::npos);
  EXPECT_TRUE(JsonValidator(std::string_view(tail).substr(brace)).valid());
}

TEST(Report, JsonBatchReportIsWellFormed) {
  const auto sc = makeSmallCase();
  BranchSiteAnalysis analysis(sc.alignment, sc.tree, EngineKind::Slim,
                              quickOptions(2));
  const auto test = analysis.run();
  std::ostringstream os;
  BatchRunInfo info;
  info.workers = 2;
  info.taskLevel = true;
  info.seconds = 0.5;
  writeJsonBatchReport(os, {test, test}, {"g\"1", "g\n2"}, EngineKind::Slim,
                       test.counters, info);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
}

}  // namespace
}  // namespace slim::core
