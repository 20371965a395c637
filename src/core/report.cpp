#include "core/report.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/json.hpp"
#include "support/require.hpp"

namespace slim::core {

namespace {

const char* stopReason(const FitResult& fit) {
  return fit.cancelled ? " (cancelled)"
         : fit.converged ? " (converged)"
                         : " (iteration cap reached)";
}

/// The per-kind wording of a test report.
struct ReportText {
  const char* title;       ///< Followed by " (<engine> engine)".
  const char* detected;    ///< Verdict lines at the 5% level.
  const char* notDetected;
  const char* nebHeading;  ///< Followed by " > <threshold> (NEB):".
};

ReportText reportText(model::ModelKind kind) {
  switch (kind) {
    case model::ModelKind::BranchSite:
      return {"Branch-site test for positive selection",
              "positive selection DETECTED on the foreground branch",
              "no significant evidence of positive selection",
              "Sites with posterior P(positive selection)"};
    case model::ModelKind::Branch:
      return {"Branch-model test, one omega per branch class",
              "branch-class omega heterogeneity DETECTED",
              "no significant branch-class omega heterogeneity", nullptr};
    case model::ModelKind::CladeC:
      return {"Clade model C test vs M2a_rel",
              "branch-class omega heterogeneity DETECTED",
              "no significant branch-class omega heterogeneity",
              "Sites with posterior P(positive selection)"};
    case model::ModelKind::Site:
      return {"Site-model test for positive selection, M1a vs M2a",
              "positive selection DETECTED across the gene",
              "no significant evidence of positive selection",
              "Sites with posterior P(omega2 class)"};
  }
  return {"?", "?", "?", nullptr};
}

}  // namespace

void writeFitReport(std::ostream& os, const FitResult& fit) {
  const auto kind = fit.modelKind;
  const bool site = kind == model::ModelKind::Site;
  // The site models keep their own names for H0/H1.
  const char* name = !site ? model::hypothesisName(fit.hypothesis)
                     : fit.hypothesis == model::Hypothesis::H0 ? "M1a"
                                                               : "M2a";
  os << "  " << name << ": lnL = " << std::fixed << std::setprecision(6)
     << fit.lnL << std::defaultfloat << '\n'
     << "    kappa  = " << fit.params.kappa << '\n';
  // The branch model has no omega0 site class and no mixture proportions;
  // the other kinds keep the classic parameter block (byte-identical for
  // branch-site, whose classOmegas is always empty).
  if (kind != model::ModelKind::Branch)
    os << "    omega0 = " << fit.params.omega0 << '\n';
  if (kind == model::ModelKind::BranchSite || site) {
    if (fit.hypothesis == model::Hypothesis::H1)
      os << "    omega2 = " << fit.params.omega2 << '\n';
  } else {
    os << (kind == model::ModelKind::CladeC ? "    divergent omegas ="
                                             : "    class omegas =");
    for (const double w : fit.classOmegas) os << ' ' << w;
    os << '\n';
  }
  if (kind != model::ModelKind::Branch)
    os << "    p0 = " << fit.params.p0 << ", p1 = " << fit.params.p1 << '\n';
  if (site) {
    // The site report has never carried evaluation counts or timings.
    os << "    iterations = " << fit.iterations << stopReason(fit)
       << ", simd = " << linalg::simdLevelName(fit.simd)
       << ", backend = " << linalg::backendLabel(fit.simd) << '\n';
  } else {
    os << "    iterations = " << fit.iterations
       << ", function evaluations = " << fit.functionEvaluations << " + "
       << fit.gradientEvaluations << " gradient ("
       << gradientModeName(fit.gradientMode) << ')' << stopReason(fit) << '\n'
       << "    wall time = " << std::setprecision(3) << fit.seconds
       << " s, simd = " << linalg::simdLevelName(fit.simd)
       << ", backend = " << linalg::backendLabel(fit.simd) << '\n';
  }
  if (!fit.resumedFrom.empty())
    os << "    resumed from " << fit.resumedFrom << " ("
       << fit.iterationsReplayed << " iterations replayed)\n";
}

void writeTestReport(std::ostream& os, const PositiveSelectionTest& test,
                     EngineKind engine, double siteThreshold) {
  const auto kind = test.h1.modelKind;
  const ReportText text = reportText(kind);
  os << text.title << " (" << engineName(engine) << " engine)\n";
  writeFitReport(os, test.h0);
  writeFitReport(os, test.h1);
  os << "  LRT: 2*dlnL = " << std::setprecision(6) << test.lrt.statistic
     << ", p(chi2_" << static_cast<int>(test.lrt.df)
     << ") = " << test.lrt.pChi2;
  // The 50:50 mixture correction applies to the boundary case of the df = 1
  // branch-site test only.
  if (kind == model::ModelKind::BranchSite)
    os << ", p(mixture) = " << test.lrt.pMixture;
  os << '\n';
  os << "  => "
     << (test.lrt.significantAt(0.05) ? text.detected : text.notDetected)
     << " (5% level)\n";

  // The branch model has no site mixture — nothing to scan.
  if (text.nebHeading == nullptr) return;
  os << "  " << text.nebHeading << " > " << siteThreshold << " (NEB):\n";
  bool any = false;
  const auto& bySite = test.posteriors.positiveSelectionBySite;
  for (std::size_t i = 0; i < bySite.size(); ++i) {
    if (bySite[i] > siteThreshold) {
      os << "    site " << (i + 1) << "  P = " << std::setprecision(4)
         << bySite[i] << '\n';
      any = true;
    }
  }
  if (!any) os << "    (none)\n";
}

std::string testReportString(const PositiveSelectionTest& test,
                             EngineKind engine, double siteThreshold) {
  std::ostringstream os;
  writeTestReport(os, test, engine, siteThreshold);
  return os.str();
}

void writeBatchSummary(std::ostream& os,
                       const std::vector<PositiveSelectionTest>& tests,
                       const std::vector<std::string>& geneNames,
                       EngineKind engine, const lik::EvalCounters& totals,
                       const BatchRunInfo& info) {
  SLIM_REQUIRE(tests.size() == geneNames.size(),
               "writeBatchSummary: tests/geneNames size mismatch");
  os << "Batch summary (" << engineName(engine) << " engine, " << tests.size()
     << " genes, " << info.workers << " workers, "
     << (info.taskLevel ? "task" : "pattern") << "-level parallelism, "
     << std::setprecision(3) << info.seconds << " s)\n";
  // All genes of one batch share one model spec, so one df heads the column
  // (df = 1 keeps the historical header bytes).
  const int df = tests.empty() ? 1 : static_cast<int>(tests.front().lrt.df);
  os << "  gene                 lnL0          lnL1          2*dlnL    p(chi2_"
     << df << ")  verdict\n";
  for (std::size_t g = 0; g < tests.size(); ++g) {
    const auto& t = tests[g];
    os << "  " << std::left << std::setw(18) << geneNames[g] << std::right
       << std::fixed << std::setw(14) << std::setprecision(4) << t.h0.lnL
       << std::setw(14) << t.h1.lnL << std::setw(10) << t.lrt.statistic
       << std::defaultfloat << std::setw(11) << std::setprecision(4)
       << t.lrt.pChi2 << "  "
       << (t.lrt.significantAt(0.05) ? "DETECTED" : "-") << '\n';
  }
  os << "  engine totals: " << totals.evaluations << " evaluations, "
     << totals.eigenDecompositions << " eigendecompositions, "
     << totals.propagatorBuilds << " propagator builds";
  if (totals.gradientSweeps > 0)
    os << ", " << totals.gradientSweeps << " gradient sweeps";
  if (totals.propagatorCacheHits + totals.propagatorCacheMisses > 0)
    os << ", cache " << totals.propagatorCacheHits << " hits / "
       << totals.propagatorCacheMisses << " misses";
  os << '\n';
}

// --- JSON ---

namespace {

// JSON primitives shared with every structured-report writer.
using support::jsonNumber;
using support::jsonString;

void jsonCounters(std::ostream& os, const lik::EvalCounters& c) {
  os << "{\"evaluations\":" << c.evaluations
     << ",\"eigenDecompositions\":" << c.eigenDecompositions
     << ",\"propagatorBuilds\":" << c.propagatorBuilds
     << ",\"patternPropagations\":" << c.patternPropagations
     << ",\"gradientSweeps\":" << c.gradientSweeps
     << ",\"cacheHits\":" << c.propagatorCacheHits
     << ",\"cacheMisses\":" << c.propagatorCacheMisses << '}';
}

void jsonFit(std::ostream& os, const FitResult& fit) {
  os << "{\"lnL\":";
  jsonNumber(os, fit.lnL);
  os << ",\"kappa\":";
  jsonNumber(os, fit.params.kappa);
  os << ",\"omega0\":";
  jsonNumber(os, fit.params.omega0);
  os << ",\"omega2\":";
  jsonNumber(os, fit.params.omega2);
  os << ",\"p0\":";
  jsonNumber(os, fit.params.p0);
  os << ",\"p1\":";
  jsonNumber(os, fit.params.p1);
  // Only non-branch-site fits carry the model name and per-class omegas:
  // branch-site JSON stays byte-identical to what earlier versions emitted.
  if (fit.modelKind != model::ModelKind::BranchSite) {
    os << ",\"model\":";
    jsonString(os, model::modelKindName(fit.modelKind));
    os << ",\"classOmegas\":[";
    for (std::size_t i = 0; i < fit.classOmegas.size(); ++i) {
      if (i) os << ',';
      jsonNumber(os, fit.classOmegas[i]);
    }
    os << ']';
  }
  os << ",\"iterations\":" << fit.iterations
     << ",\"functionEvaluations\":" << fit.functionEvaluations
     << ",\"gradientEvaluations\":" << fit.gradientEvaluations
     << ",\"gradientMode\":";
  jsonString(os, gradientModeName(fit.gradientMode));
  os << ",\"simd\":";
  jsonString(os, linalg::simdLevelName(fit.simd));
  os << ",\"backend\":";
  jsonString(os, linalg::backendLabel(fit.simd));
  os << ",\"converged\":" << (fit.converged ? "true" : "false");
  // Only cancelled fits carry the flag, keeping untouched runs' JSON
  // byte-identical to what earlier versions emitted.
  if (fit.cancelled) os << ",\"cancelled\":true";
  os << ",\"seconds\":";
  jsonNumber(os, fit.seconds);
  if (!fit.resumedFrom.empty()) {
    os << ",\"resumedFrom\":";
    jsonString(os, fit.resumedFrom);
    os << ",\"iterationsReplayed\":" << fit.iterationsReplayed;
  }
  os << ",\"counters\":";
  jsonCounters(os, fit.counters);
  os << '}';
}

void jsonTest(std::ostream& os, const PositiveSelectionTest& test,
              std::string_view geneName, double siteThreshold) {
  os << '{';
  if (!geneName.empty()) {
    os << "\"gene\":";
    jsonString(os, geneName);
    os << ',';
  }
  os << "\"h0\":";
  jsonFit(os, test.h0);
  os << ",\"h1\":";
  jsonFit(os, test.h1);
  os << ",\"lrt\":{\"statistic\":";
  jsonNumber(os, test.lrt.statistic);
  os << ",\"df\":";
  jsonNumber(os, test.lrt.df);
  os << ",\"pChi2\":";
  jsonNumber(os, test.lrt.pChi2);
  os << ",\"pMixture\":";
  jsonNumber(os, test.lrt.pMixture);
  os << ",\"significantAt05\":"
     << (test.lrt.significantAt(0.05) ? "true" : "false") << '}';
  os << ",\"positiveSites\":[";
  bool first = true;
  const auto& bySite = test.posteriors.positiveSelectionBySite;
  for (std::size_t i = 0; i < bySite.size(); ++i) {
    if (bySite[i] > siteThreshold) {
      if (!first) os << ',';
      first = false;
      os << "{\"site\":" << (i + 1) << ",\"posterior\":";
      jsonNumber(os, bySite[i]);
      os << '}';
    }
  }
  os << "],\"totalSeconds\":";
  jsonNumber(os, test.totalSeconds);
  os << ",\"counters\":";
  jsonCounters(os, test.counters);
  os << '}';
}

}  // namespace

void writeJsonTestReport(std::ostream& os, const PositiveSelectionTest& test,
                         EngineKind engine, std::string_view geneName,
                         double siteThreshold) {
  os << "{\"engine\":";
  jsonString(os, engineName(engine));
  os << ",\"test\":";
  jsonTest(os, test, geneName, siteThreshold);
  os << "}\n";
}

void writeJsonBatchReport(std::ostream& os,
                          const std::vector<PositiveSelectionTest>& tests,
                          const std::vector<std::string>& geneNames,
                          EngineKind engine, const lik::EvalCounters& totals,
                          const BatchRunInfo& info, double siteThreshold) {
  SLIM_REQUIRE(tests.size() == geneNames.size(),
               "writeJsonBatchReport: tests/geneNames size mismatch");
  os << "{\"engine\":";
  jsonString(os, engineName(engine));
  os << ",\"genes\":[";
  for (std::size_t g = 0; g < tests.size(); ++g) {
    if (g) os << ',';
    jsonTest(os, tests[g], geneNames[g], siteThreshold);
  }
  os << "],\"totals\":";
  jsonCounters(os, totals);
  os << ",\"batch\":{\"taskLevel\":" << (info.taskLevel ? "true" : "false")
     << ",\"workers\":" << info.workers << ",\"seconds\":";
  jsonNumber(os, info.seconds);
  os << "}}\n";
}

}  // namespace slim::core
