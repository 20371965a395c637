// Tests for the CodeML-style control-file parser and the file-driven
// runner (core::runConfig and its report writers).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace slim::core {
namespace {

TEST(ConfigParse, FullFile) {
  const auto cfg = Config::parseString(R"(
      * a comment
      seqfile  = gene.fasta
      treefile = gene.nwk    * trailing comment
      outfile  = out.txt
      engine   = codeml
      CodonFreq = 3
      maxIterations = 123
      kappa = 3.5
      omega0 = 0.2
      omega2 = 4.0
      p0 = 0.5
      p1 = 0.25
      cleandata = 1
      seed = 99
  )");
  EXPECT_EQ(cfg.seqfiles, std::vector<std::string>{"gene.fasta"});
  EXPECT_EQ(cfg.treefile, "gene.nwk");
  EXPECT_EQ(cfg.outfile, "out.txt");
  EXPECT_EQ(cfg.engine, EngineKind::CodemlBaseline);
  EXPECT_EQ(cfg.fit.frequencyModel, model::CodonFrequencyModel::F61);
  EXPECT_EQ(cfg.fit.bfgs.maxIterations, 123);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.kappa, 3.5);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.omega0, 0.2);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.omega2, 4.0);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.p0, 0.5);
  EXPECT_DOUBLE_EQ(cfg.fit.initialParams.p1, 0.25);
  EXPECT_TRUE(cfg.stopCodonsAsMissing);
  EXPECT_EQ(cfg.fit.startJitterSeed, 99u);
}

TEST(ConfigParse, DefaultsApplied) {
  const auto cfg =
      Config::parseString("seqfile = a.fa\ntreefile = a.nwk\n");
  EXPECT_EQ(cfg.engine, EngineKind::Slim);
  EXPECT_EQ(cfg.fit.frequencyModel, model::CodonFrequencyModel::F3x4);
  EXPECT_TRUE(cfg.outfile.empty());
  EXPECT_FALSE(cfg.stopCodonsAsMissing);
  EXPECT_EQ(cfg.fit.tuning.gradient, GradientMode::FiniteDiff);
}

TEST(ConfigParse, GradientModes) {
  const char* base = "seqfile = s\ntreefile = t\ngradient = ";
  EXPECT_EQ(Config::parseString(std::string(base) + "fd\n")
                .fit.tuning.gradient,
            GradientMode::FiniteDiff);
  EXPECT_EQ(Config::parseString(std::string(base) + "analytic\n")
                .fit.tuning.gradient,
            GradientMode::Analytic);
  // `fd` fans its own probes; the retired `fd-parallel` is an error.
  for (const char* bad : {"newton", "fd-parallel"}) {
    try {
      Config::parseString(std::string(base) + bad + "\n");
      ADD_FAILURE() << "expected ConfigError for " << bad;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "line 3: gradient must be 'fd' or 'analytic'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigParse, Errors) {
  // A missing treefile.  (A missing seqfile parses: --batch supplies the
  // genes, and runConfig refuses a run without any.)
  EXPECT_THROW(Config::parseString("seqfile = s.fa\n"),
               std::invalid_argument);
  // Unknown keys, whatever their value: `expm =` (the eigen path is the
  // only propagator builder), `tuning =` (no per-host profile) and
  // `backend =` (`simd =` alone picks the kernel table).
  for (const char* line :
       {"bogus = 1", "expm = eigen", "expm = adaptive", "tuning = auto",
        "tuning = host.profile", "backend = auto", "backend = reference",
        "backend = simd", "backend = blas"})
    EXPECT_THROW(Config::parseString(
                     std::string("seqfile = s\ntreefile = t\n") + line + "\n"),
                 ConfigError)
        << line;
  // The refusal is keyed by line and names the key.
  try {
    Config::parseString("seqfile = s\ntreefile = t\nbackend = blas\n");
    ADD_FAILURE() << "backend = blas parsed";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "control file line 3: unknown key 'backend'");
  }
  // Malformed lines and values.
  EXPECT_THROW(Config::parseString("seqfile\n"), std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nkappa = abc\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nCodonFreq = 7\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nengine = fast\n"),
               std::invalid_argument);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\nmaxIterations = 2.5\n"),
               std::invalid_argument);
}

TEST(ConfigParse, CheckpointKeys) {
  const auto cfg = Config::parseString(
      "seqfile = s\ntreefile = t\ncheckpoint = run.ckpt\n"
      "checkpointEverySec = 2.5\n");
  EXPECT_EQ(cfg.checkpointPath, "run.ckpt");
  EXPECT_DOUBLE_EQ(cfg.checkpointEverySec, 2.5);
  EXPECT_FALSE(cfg.resume);  // --resume is a CLI flag, not a ctl key

  // Defaults: no checkpointing, 30 s throttle.
  const auto plain = Config::parseString("seqfile = s\ntreefile = t\n");
  EXPECT_TRUE(plain.checkpointPath.empty());
  EXPECT_DOUBLE_EQ(plain.checkpointEverySec, 30.0);

  // A negative throttle and a malformed one are keyed errors.
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\ncheckpointEverySec = -1\n"),
               ConfigError);
  EXPECT_THROW(Config::parseString(
                   "seqfile = s\ntreefile = t\ncheckpointEverySec = soon\n"),
               ConfigError);
}

TEST(ConfigParse, SimdModes) {
  const char* base = "seqfile = s\ntreefile = t\nsimd = ";
  EXPECT_EQ(Config::parseString(std::string(base) + "auto\n").fit.tuning.simd,
            linalg::SimdMode::Auto);
  EXPECT_EQ(
      Config::parseString(std::string(base) + "scalar\n").fit.tuning.simd,
      linalg::SimdMode::Scalar);
  EXPECT_EQ(Config::parseString(std::string(base) + "avx2\n").fit.tuning.simd,
            linalg::SimdMode::Avx2);
  EXPECT_EQ(
      Config::parseString(std::string(base) + "avx512\n").fit.tuning.simd,
      linalg::SimdMode::Avx512);
  EXPECT_THROW(Config::parseString(std::string(base) + "sse2\n"), ConfigError);
  // Default when the key is absent.
  EXPECT_EQ(Config::parseString("seqfile = s\ntreefile = t\n").fit.tuning.simd,
            linalg::SimdMode::Auto);
}

// Malformed or overflowing numerics must surface as a ConfigError naming
// the key and the line — never as a bare std::out_of_range from std::stod
// or as undefined behaviour in a narrowing cast.
TEST(ConfigParse, NumericFuzzRejectsHostileValues) {
  const auto expectKeyedError = [](const std::string& line,
                                   const std::string& key,
                                   const std::string& detail = "") {
    const std::string text = "seqfile = s\ntreefile = t\n" + line + "\n";
    try {
      Config::parseString(text);
      FAIL() << "expected ConfigError for: " << line;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(detail), std::string::npos) << what;
    }
  };
  expectKeyedError("kappa = 1e999", "kappa");          // double overflow
  expectKeyedError("kappa = -1e999", "kappa");         // negative overflow
  expectKeyedError("kappa = nan", "kappa");            // stod parses, reject
  expectKeyedError("kappa = inf", "kappa");            // stod parses, reject
  expectKeyedError("kappa = 1.2.3", "kappa");          // trailing garbage
  expectKeyedError("kappa = --5", "kappa");            // not a number
  expectKeyedError("omega2 = 2,5", "omega2");          // locale-style comma
  expectKeyedError("p0 = 0x", "p0");                   // incomplete hex
  expectKeyedError("maxIterations = 1e12", "maxIterations");  // > int range
  expectKeyedError("maxIterations = 2.5", "maxIterations");   // fraction
  expectKeyedError("threads = 1e300", "threads");      // > int range
  expectKeyedError("seed = -3", "seed");               // negative seed
  expectKeyedError("seed = 2e19", "seed");             // >= 2^64: UB cast
  expectKeyedError("seed = 2.5", "seed");              // fractional seed
  expectKeyedError("seed = 18446744073709551616", "seed");  // 2^64
  // Starting values outside the open domain their transform maps onto R
  // would be clamped next to the boundary, where BFGS never moves them.
  // The error names the value and the interval, which follows `model =`
  // wherever that key sits.
  expectKeyedError("omega2 = 1", "omega2",
                   "(1, inf) under model = branch-site, got '1'");
  expectKeyedError("omega2 = 0.5", "omega2", "(1, inf)");
  expectKeyedError("p0 = 0.7\np1 = 0.5", "p0", "(0, 0.5) (p0 + p1 < 1)");
  expectKeyedError("kappa = -1", "kappa", "(0, inf)");
  expectKeyedError("omega0 = 1.5", "omega0", "(0, 1)");
  expectKeyedError("p1 = 1\nmodel = site", "p1", "(0, 0.55)");
  expectKeyedError("omega0 = 1\nmodel = clade-c", "omega0",
                   "(0, 1) under model = clade-c");
  expectKeyedError("kappa = 0\nmodel = branch", "kappa", "(0, inf)");
  // ConfigError still is-a std::invalid_argument for legacy catch sites.
  EXPECT_THROW(
      Config::parseString("seqfile = s\ntreefile = t\nkappa = 1e999\n"),
      std::invalid_argument);
}

// Seeds are exact: read through a double, both would round.
TEST(ConfigParse, SeedsRoundTripExactly) {
  for (const std::uint64_t seed :
       {9007199254740993ull, 18446744073709551615ull})
    EXPECT_EQ(Config::parseString("seqfile = s\ntreefile = t\nseed = " +
                                  std::to_string(seed) + "\n")
                  .fit.startJitterSeed,
              seed);
}

TEST(ConfigParse, ErrorMentionsLineNumber) {
  try {
    Config::parseString("seqfile = s\ntreefile = t\nbogus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

class ConfigRun : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return testing::TempDir() + "slimcfg_" + name;
  }
  void write(const std::string& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  }
};

TEST_F(ConfigRun, EndToEnd) {
  const std::string fasta = path("gene.fasta");
  const std::string nwk = path("gene.nwk");
  const std::string out = path("out.txt");
  const std::string ctl = path("run.ctl");
  write(fasta,
        ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n"
        ">c\nATGGCAAAATTTCCG\n>d\nATGGTTAAGTTTCCA\n");
  write(nwk, "((a:0.05,b:0.05) #1:0.03,(c:0.08,d:0.12):0.02);");
  write(ctl, "seqfile = " + fasta + "\ntreefile = " + nwk +
                 "\noutfile = " + out + "\nmaxIterations = 4\n");

  const auto cfg = Config::parseFile(ctl);
  const auto run = runConfig(cfg);
  writeRunReports(cfg, run, /*json=*/false);
  ASSERT_TRUE(run.singleTest);
  EXPECT_TRUE(std::isfinite(run.tests.front().h0.lnL));
  EXPECT_TRUE(std::isfinite(run.tests.front().h1.lnL));

  std::ifstream report(out);
  ASSERT_TRUE(report.good());
  std::string content((std::istreambuf_iterator<char>(report)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("LRT"), std::string::npos);
  std::remove(fasta.c_str());
  std::remove(nwk.c_str());
  std::remove(out.c_str());
  std::remove(ctl.c_str());
}

TEST_F(ConfigRun, PhylipInputDetected) {
  const std::string phy = path("gene.phy");
  const std::string nwk = path("gene2.nwk");
  const std::string ctl = path("run2.ctl");
  write(phy,
        "3 9\na  ATGGCTAAA\nb  ATGGCTAAG\nc  ATGGCAAAA\n");
  write(nwk, "(a:0.05,b:0.05,c:0.08 #1);");
  write(ctl, "seqfile = " + phy + "\ntreefile = " + nwk +
                 "\noutfile = -\nmaxIterations = 2\n");
  const auto out = runConfig(Config::parseFile(ctl));
  EXPECT_TRUE(std::isfinite(out.tests.front().h1.lnL));
  std::remove(phy.c_str());
  std::remove(nwk.c_str());
  std::remove(ctl.c_str());
}

TEST(ConfigParse, ModelSelection) {
  const auto site = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = site\n");
  EXPECT_EQ(site.fit.modelSpec.kind, model::ModelKind::Site);
  const auto bs = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = branch-site\n");
  EXPECT_EQ(bs.fit.modelSpec.kind, model::ModelKind::BranchSite);
  const auto br = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = branch\n");
  EXPECT_EQ(br.fit.modelSpec.kind, model::ModelKind::Branch);
  const auto cc = Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = clade-c\n");
  EXPECT_EQ(cc.fit.modelSpec.kind, model::ModelKind::CladeC);
  // Start values are checked against the kind's domains: the branch
  // model's omega0 seeds a positive class omega and it reads no
  // proportions; clade C's omega2 seeds its class omegas.
  for (const char* starts : {"omega0 = 1.5\n", "p0 = 0.7\np1 = 0.5\n"})
    EXPECT_NO_THROW(Config::parseString(
        std::string("seqfile = s\ntreefile = t\nmodel = branch\n") + starts))
        << starts;
  EXPECT_NO_THROW(Config::parseString(
      "seqfile = s\ntreefile = t\nmodel = clade-c\nomega2 = 0.5\n"));
  EXPECT_THROW(
      Config::parseString("seqfile = s\ntreefile = t\nmodel = M8\n"),
      std::invalid_argument);
  try {
    Config::parseString("seqfile = s\ntreefile = t\nmodel = M8\n");
    FAIL() << "expected keyed error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'clade-c'"), std::string::npos);
  }
}

TEST(ConfigParse, ForegroundSelector) {
  // Default: no scan.
  EXPECT_TRUE(Config::parseString("seqfile = s\ntreefile = t\n")
                  .foreground.empty());
  // Labels / node ids, comma within a set, semicolon between sets, and the
  // every-branch keyword all pass through verbatim ('#' would open a ctl
  // comment, so marks are never spelled here).
  const auto scan = Config::parseString(
      "seqfile = s\ntreefile = t\nforeground = human,chimp; gorilla\n");
  EXPECT_EQ(scan.foreground, "human,chimp; gorilla");
  const auto every = Config::parseString(
      "seqfile = s\ntreefile = t\nforeground = every-branch\n");
  EXPECT_EQ(every.foreground, "every-branch");
}

TEST_F(ConfigRun, SiteModelEndToEnd) {
  const std::string fasta = path("sgene.fasta");
  const std::string nwk = path("sgene.nwk");
  const std::string ctl = path("srun.ctl");
  write(fasta,
        ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n"
        ">c\nATGGCAAAATTTCCG\n>d\nATGGTTAAGTTTCCA\n");
  // No #1 mark required for site models.
  write(nwk, "((a:0.05,b:0.05):0.03,(c:0.08,d:0.12):0.02);");
  write(ctl, "seqfile = " + fasta + "\ntreefile = " + nwk +
                 "\nmodel = site\noutfile = -\nmaxIterations = 3\n");
  const auto test = runConfig(Config::parseFile(ctl)).tests.front();
  EXPECT_TRUE(std::isfinite(test.h0.lnL));  // M1a
  EXPECT_TRUE(std::isfinite(test.h1.lnL));  // M2a
  EXPECT_DOUBLE_EQ(test.lrt.df, 2.0);
  std::remove(fasta.c_str());
  std::remove(nwk.c_str());
  std::remove(ctl.c_str());
}

class SiteRun : public ConfigRun {
 protected:
  /// A `model = site` control file over a 5-taxon gene (no marks needed).
  std::string siteCtl(const std::string& tag, const std::string& extra) {
    const std::string fasta = path(tag + ".fasta");
    const std::string nwk = path(tag + ".nwk");
    write(fasta,
          ">human\nATGGCTAAATTTCCCGGGACTTGCGGAGAT\n"
          ">chimp\nATGGCTAAATTCCCCGGGACTTGCGGAGAT\n"
          ">gorilla\nATGGCAAAATTTCCCGGAACTTGTGGAGAC\n"
          ">orangutan\nATGGCTAAGTTTCCAGGGACATGCGGTGAT\n"
          ">macaque\nATGGCGAAGTTTCCAGGAACATGTGGTGAC\n");
    write(nwk,
          "(((human:0.02,chimp:0.02):0.015,gorilla:0.04):0.02,"
          "(orangutan:0.08,macaque:0.10):0.03);");
    return "seqfile = " + fasta + "\ntreefile = " + nwk +
           "\nmodel = site\nmaxIterations = 3\n" + extra;
  }

  /// Run a site-model control file; returns its text report.
  std::string report(const std::string& ctlText, const std::string& name,
                     PositiveSelectionTest* test = nullptr) {
    Config cfg = Config::parseString(ctlText);
    cfg.outfile = path(name);
    const auto out = runConfig(cfg);
    writeRunReports(cfg, out, /*json=*/false);
    if (test != nullptr) *test = out.tests.front();
    std::ifstream in(cfg.outfile);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(cfg.outfile.c_str());
    return text.str();
  }
};

TEST_F(SiteRun, CancelledFitsAreReportedCancelled) {
  // A nanoscopic budget: both fits stop at their first iteration boundary.
  PositiveSelectionTest test;
  const std::string text =
      report(siteCtl("scancel", "timeoutSec = 0.000001\n"), "scancel.txt",
             &test);
  EXPECT_TRUE(test.h0.cancelled);
  EXPECT_TRUE(test.h1.cancelled);
  // No NEB scan at a truncated M2a point.
  EXPECT_TRUE(test.posteriors.positiveSelectionBySite.empty());
  EXPECT_NE(text.find("M1a: lnL"), std::string::npos) << text;
  EXPECT_NE(text.find("M2a: lnL"), std::string::npos) << text;
  const auto first = text.find("(cancelled)");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_NE(text.find("(cancelled)", first + 1), std::string::npos) << text;
  EXPECT_EQ(text.find("iteration cap reached"), std::string::npos) << text;
}

TEST_F(SiteRun, SeedJittersTheStart) {
  const std::string base = siteCtl("sseed", "");
  const std::string unseeded = report(base, "sseed_u.txt");
  EXPECT_EQ(report(base + "seed = 0\n", "sseed_0.txt"), unseeded);
  const std::string seeded = report(base + "seed = 5\n", "sseed_5a.txt");
  EXPECT_EQ(report(base + "seed = 5\n", "sseed_5b.txt"), seeded);
  EXPECT_NE(seeded, unseeded);
}

TEST_F(ConfigRun, MissingFilesRaise) {
  EXPECT_THROW(Config::parseFile(path("nonexistent.ctl")),
               std::invalid_argument);
  Config cfg;
  cfg.seqfiles = {path("missing.fa")};
  cfg.treefile = path("missing.nwk");
  EXPECT_THROW(runConfig(cfg), std::invalid_argument);
}

// `--batch <dir>` appends the genes to a ctl that names none: the ctl
// parses, runs once genes are appended, and without any the runner raises
// the keyed error.
TEST_F(ConfigRun, BatchWithoutSeqfileLine) {
  const std::string fasta = path("bgene.fasta");
  const std::string nwk = path("bgene.nwk");
  write(fasta,
        ">a\nATGGCTAAATTTCCC\n>b\nATGGCTAAATTCCCC\n"
        ">c\nATGGCAAAATTTCCG\n>d\nATGGTTAAGTTTCCA\n");
  write(nwk, "((a:0.05,b:0.05) #1:0.03,(c:0.08,d:0.12):0.02);");
  Config cfg = Config::parseString("treefile = " + nwk +
                                   "\nmaxIterations = 3\n");
  EXPECT_TRUE(cfg.seqfiles.empty());
  try {
    runConfig(cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("seqfile is required"),
              std::string::npos)
        << e.what();
  }
  cfg.seqfiles = {fasta, fasta};
  const auto out = runConfig(cfg);
  EXPECT_FALSE(out.singleTest);
  ASSERT_EQ(out.tests.size(), 2u);
  EXPECT_EQ(out.names, (std::vector<std::string>{"slimcfg_bgene",
                                                  "slimcfg_bgene"}));
  EXPECT_EQ(out.tests[0].h1.lnL, out.tests[1].h1.lnL);
  std::remove(fasta.c_str());
  std::remove(nwk.c_str());
}

}  // namespace
}  // namespace slim::core
