// Tests for checkpoint/restart: exact-bit serialization, optimizer-level
// resume, the CheckpointManager, and the end-to-end contract that a fit
// interrupted at an arbitrary iteration and resumed from its checkpoint
// produces a final lnL and parameter vector bit-identical (EXPECT_EQ) to
// the uninterrupted run — while corrupted, truncated or mismatched
// checkpoint files are refused with a keyed ConfigError, never UB.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "opt/bfgs.hpp"
#include "sim/datasets.hpp"
#include "support/atomic_file.hpp"

namespace slim::core {
namespace {

using model::Hypothesis;

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (removed on destruction).
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) /
             ("slim_ckpt_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------- atomic file writes ----------

TEST(AtomicFile, CreatesReplacesAndLeavesNoTemps) {
  const TempDir dir("atomic");
  const std::string path = dir.file("out.txt");
  support::writeFileAtomic(path, "first contents\n");
  EXPECT_EQ(slurp(path), "first contents\n");
  support::writeFileAtomic(path, "second");
  EXPECT_EQ(slurp(path), "second");

  // Nothing but the destination file may remain in the directory.
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "out.txt");
  }
  EXPECT_EQ(entries, 1);
}

TEST(AtomicFile, FailureLeavesDestinationUntouched) {
  const TempDir dir("atomicfail");
  const std::string path = dir.file("out.txt");
  support::writeFileAtomic(path, "keep me");
  // A write into a missing directory must throw and not touch anything.
  EXPECT_THROW(
      support::writeFileAtomic(dir.file("no/such/dir/out.txt"), "x"),
      std::runtime_error);
  EXPECT_EQ(slurp(path), "keep me");
}

// ---------- exact-bit doubles ----------

TEST(HexDouble, RoundTripsExactBits) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           3.14159265358979323846,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           -1.2345678901234567e-300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    const double back = parseHexDouble(hexDouble(v), "test");
    EXPECT_EQ(bits(back), bits(v)) << hexDouble(v);
  }
  EXPECT_TRUE(std::isnan(
      parseHexDouble(hexDouble(std::numeric_limits<double>::quiet_NaN()),
                     "test")));
  EXPECT_THROW(parseHexDouble("0x1.8p+1trailing", "test"), ConfigError);
  EXPECT_THROW(parseHexDouble("", "test"), ConfigError);
  EXPECT_THROW(parseHexDouble("zebra", "test"), ConfigError);
}

// ---------- optimizer-level resume ----------

opt::Objective rosenbrock() {
  return [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
}

TEST(BfgsResume, ContinuesTheSameTrajectoryBitForBit) {
  const std::vector<double> x0{-1.2, 1.0};
  opt::BfgsOptions options;
  options.maxIterations = 60;

  std::vector<opt::BfgsState> states;
  opt::CallableObjective full(rosenbrock());
  const auto uninterrupted = opt::minimizeBfgs(
      full, x0, options,
      [&states](const opt::BfgsState& st) { states.push_back(st); });
  ASSERT_TRUE(uninterrupted.converged);
  ASSERT_GT(states.size(), 4u);

  // Resume from several interruption points, including iteration 0 and the
  // very last snapshot; every resumed run must land on the identical result
  // with identical counters.
  const std::size_t picks[] = {0, 1, states.size() / 2, states.size() - 1};
  for (const std::size_t k : picks) {
    opt::CallableObjective fresh(rosenbrock());
    const auto resumed =
        opt::minimizeBfgs(fresh, x0, options, {}, &states[k]);
    EXPECT_EQ(resumed.x, uninterrupted.x) << "k=" << k;
    EXPECT_EQ(resumed.value, uninterrupted.value) << "k=" << k;
    EXPECT_EQ(resumed.iterations, uninterrupted.iterations) << "k=" << k;
    EXPECT_EQ(resumed.functionEvaluations, uninterrupted.functionEvaluations)
        << "k=" << k;
    EXPECT_EQ(resumed.gradientEvaluations, uninterrupted.gradientEvaluations)
        << "k=" << k;
    EXPECT_EQ(resumed.converged, uninterrupted.converged) << "k=" << k;
    EXPECT_EQ(resumed.message, uninterrupted.message) << "k=" << k;
  }

  // And through the on-disk format (exact-bit hex round trip).
  Checkpoint ck;
  ck.inFlight["t"] = states[states.size() / 2];
  const Checkpoint back = Checkpoint::parse(ck.serialize(), "bfgs");
  opt::CallableObjective fresh(rosenbrock());
  const auto resumed =
      opt::minimizeBfgs(fresh, x0, options, {}, &back.inFlight.at("t"));
  EXPECT_EQ(resumed.x, uninterrupted.x);
  EXPECT_EQ(resumed.value, uninterrupted.value);
  EXPECT_EQ(resumed.functionEvaluations, uninterrupted.functionEvaluations);
}

TEST(BfgsResume, MismatchedDimensionsThrow) {
  opt::CallableObjective f(rosenbrock());
  opt::BfgsState bogus;
  bogus.x = {1.0};  // dimension 1 vs problem dimension 2
  bogus.grad = {0.0};
  bogus.hInv = {1.0};
  bogus.value = 0.0;
  EXPECT_THROW(
      opt::minimizeBfgs(f, std::vector<double>{0.0, 0.0}, {}, {}, &bogus),
      std::invalid_argument);
}

// ---------- checkpoint file format ----------

Checkpoint sampleCheckpoint() {
  Checkpoint ck;
  ck.configHash = 0xdeadbeefcafef00dull;

  FitResult fit;
  fit.hypothesis = Hypothesis::H1;
  fit.lnL = -1234.56789012345678;
  fit.params.kappa = 2.5;
  fit.params.omega0 = 1.0 / 3.0;
  fit.params.omega2 = 6.02214076e23;
  fit.params.p0 = 0.45;
  fit.params.p1 = 5e-324;
  fit.branchLengths = {0.1, -0.0, 1e-300, 42.0};
  fit.iterations = 37;
  fit.functionEvaluations = 123;
  fit.gradientEvaluations = 456;
  fit.gradientMode = GradientMode::Analytic;
  fit.simd = linalg::SimdLevel::Scalar;
  fit.converged = true;
  ck.completed["g0:geneA/H1"] = fit;

  opt::BfgsState st;
  st.x = {0.25, -1.5, 3.0};
  st.value = -987.125;
  st.grad = {1e-8, -2e-8, 0.0};
  st.hInv = std::vector<double>(9, 0.5);
  st.iterations = 11;
  st.functionEvaluations = 77;
  st.gradientEvaluations = 33;
  st.gradientSweeps = 11;
  st.analyticCoordinates = 3;
  st.slowProgress = 1;
  ck.inFlight["g1:gene B/H0"] = st;  // key with a space must survive
  return ck;
}

TEST(CheckpointFormat, SerializeParseRoundTripIsExact) {
  const Checkpoint ck = sampleCheckpoint();
  const Checkpoint back = Checkpoint::parse(ck.serialize(), "roundtrip");

  EXPECT_EQ(back.configHash, ck.configHash);
  ASSERT_EQ(back.completed.size(), 1u);
  ASSERT_EQ(back.inFlight.size(), 1u);

  const FitResult& a = ck.completed.at("g0:geneA/H1");
  const FitResult& b = back.completed.at("g0:geneA/H1");
  EXPECT_EQ(b.hypothesis, a.hypothesis);
  EXPECT_EQ(bits(b.lnL), bits(a.lnL));
  EXPECT_EQ(bits(b.params.kappa), bits(a.params.kappa));
  EXPECT_EQ(bits(b.params.omega0), bits(a.params.omega0));
  EXPECT_EQ(bits(b.params.omega2), bits(a.params.omega2));
  EXPECT_EQ(bits(b.params.p0), bits(a.params.p0));
  EXPECT_EQ(bits(b.params.p1), bits(a.params.p1));
  ASSERT_EQ(b.branchLengths.size(), a.branchLengths.size());
  for (std::size_t i = 0; i < a.branchLengths.size(); ++i)
    EXPECT_EQ(bits(b.branchLengths[i]), bits(a.branchLengths[i])) << i;
  EXPECT_EQ(b.iterations, a.iterations);
  EXPECT_EQ(b.functionEvaluations, a.functionEvaluations);
  EXPECT_EQ(b.gradientEvaluations, a.gradientEvaluations);
  EXPECT_EQ(b.gradientMode, a.gradientMode);
  EXPECT_EQ(b.simd, a.simd);
  EXPECT_EQ(b.converged, a.converged);

  const opt::BfgsState& sa = ck.inFlight.at("g1:gene B/H0");
  const opt::BfgsState& sb = back.inFlight.at("g1:gene B/H0");
  EXPECT_EQ(sb.x, sa.x);
  EXPECT_EQ(bits(sb.value), bits(sa.value));
  EXPECT_EQ(sb.grad, sa.grad);
  EXPECT_EQ(sb.hInv, sa.hInv);
  EXPECT_EQ(sb.iterations, sa.iterations);
  EXPECT_EQ(sb.functionEvaluations, sa.functionEvaluations);
  EXPECT_EQ(sb.gradientEvaluations, sa.gradientEvaluations);
  EXPECT_EQ(sb.gradientSweeps, sa.gradientSweeps);
  EXPECT_EQ(sb.analyticCoordinates, sa.analyticCoordinates);
  EXPECT_EQ(sb.slowProgress, sa.slowProgress);
}

TEST(CheckpointFormat, SaveLoadThroughFile) {
  const TempDir dir("saveload");
  const std::string path = dir.file("run.ckpt");
  const Checkpoint ck = sampleCheckpoint();
  ck.save(path);
  const Checkpoint back = Checkpoint::load(path);
  EXPECT_EQ(back.serialize(), ck.serialize());
}

void expectParseError(const std::string& text, const std::string& needle) {
  try {
    Checkpoint::parse(text, "bad.ckpt");
    FAIL() << "expected ConfigError mentioning '" << needle << "'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, RefusesCorruptedAndMismatchedInput) {
  const std::string good = sampleCheckpoint().serialize();

  expectParseError("", "empty");
  expectParseError("not-a-checkpoint v1\n", "magic");

  // Version bump: refused with the version named.
  {
    std::string v2 = good;
    v2.replace(v2.find(" v1\n"), 4, " v2\n");
    expectParseError(v2, "version");
  }
  // Truncation at any record boundary or mid-record: refused, not UB.
  for (const std::size_t cut :
       {good.size() / 4, good.size() / 2, good.size() - 2}) {
    expectParseError(good.substr(0, cut), "truncated");
  }
  // A corrupted numeric field names the field.
  {
    std::string bad = good;
    const auto at = bad.find("lnL ");
    bad.replace(at, bad.find('\n', at) - at, "lnL 0xnope");
    expectParseError(bad, "lnL");
  }
  // Unknown fields are refused (no silent skipping of state).
  {
    std::string bad = good;
    bad.replace(bad.find("slowProgress"), 12, "slowProgrexx");
    expectParseError(bad, "slowProgrexx");
  }
  // The eigen path is the only propagator builder: a completed fit stamped
  // with another (the retired `adaptive` among them) is refused by name.
  {
    std::string bad = good;
    bad.replace(bad.find("expm eigen"), 10, "expm adaptive");
    expectParseError(bad, "unknown expm algorithm 'adaptive'");
  }
  // `fd` fans its own probes, so a completed fit stamped with the retired
  // `fd-parallel` mode is refused by name.
  {
    std::string bad = good;
    bad.replace(bad.find("gradientMode analytic"), 21,
                "gradientMode fd-parallel");
    expectParseError(bad, "unknown gradient mode 'fd-parallel'");
  }
  // Malformed config hash.
  expectParseError("slimcodeml-checkpoint v1\nconfigHash zzzz\n",
                   "configHash");
  // Inconsistent state dimensions (hInv must be n*n).
  {
    std::string bad = good;
    const auto at = bad.find("hInv ");
    const auto end = bad.find('\n', at);
    bad.replace(at, end - at, "hInv 0x1p+0 0x1p+0");
    expectParseError(bad, "dimensions");
  }
  // A record of a status no optimizer writes (the retired Nelder-Mead
  // "nm" snapshots among them) is refused by name.
  expectParseError(
      "slimcodeml-checkpoint v1\nconfigHash 0000000000000001\n"
      "task g0:a/H0\nstatus nm\ndim 1\nvertices 0x0p+0 0x1p+0\n"
      "fv 0x0p+0 0x1p+0\niterations 1\nfunctionEvaluations 2\nend\n",
      "unknown status 'nm'");
  // Integer fields that would overflow long or wrap through the int cast
  // are keyed errors, never silent clamping/truncation.
  for (const char* hostile :
       {"iterations 99999999999999999999999", "iterations 4294967296",
        "slowProgress 92233720368547758070"}) {
    std::string bad = good;
    const auto field = std::string_view(hostile).substr(
        0, std::string_view(hostile).find(' '));
    const auto at = bad.find(std::string(field) + " ");
    bad.replace(at, bad.find('\n', at) - at, hostile);
    expectParseError(bad, "out of range");
  }
}

TEST(FitTaskKey, SanitizesControlCharactersAndPinsIndex) {
  EXPECT_EQ(fitTaskKey(3, "geneA", Hypothesis::H1), "g3:geneA/H1");
  // A newline in a (hostile) filename-derived name must not be able to
  // corrupt the line-oriented checkpoint format.
  const std::string key = fitTaskKey(0, "bad\nname\ttab", Hypothesis::H0);
  EXPECT_EQ(key, "g0:bad_name_tab/H0");
  Checkpoint ck;
  opt::BfgsState st;
  st.x = {1.0};
  st.grad = {0.0};
  st.hInv = {1.0};
  ck.inFlight[key] = st;
  const Checkpoint back = Checkpoint::parse(ck.serialize(), "keys");
  EXPECT_EQ(back.inFlight.count(key), 1u);
}

TEST(BfgsResume, NonFiniteCheckpointStateRefused) {
  // A well-formed checkpoint can still carry nan/inf (the hex format
  // round-trips them); the driver must refuse rather than start a NaN
  // trajectory that ends in a clean-looking "stationary" stop.
  std::vector<opt::BfgsState> states;
  opt::CallableObjective f(rosenbrock());
  opt::minimizeBfgs(f, std::vector<double>{-1.2, 1.0}, {},
                    [&states](const opt::BfgsState& st) {
                      states.push_back(st);
                    });
  ASSERT_FALSE(states.empty());
  opt::BfgsState poisoned = states.back();
  poisoned.grad[0] = std::numeric_limits<double>::quiet_NaN();
  opt::CallableObjective fresh(rosenbrock());
  EXPECT_THROW(opt::minimizeBfgs(fresh, std::vector<double>{0.0, 0.0}, {},
                                 {}, &poisoned),
               std::invalid_argument);
  poisoned = states.back();
  poisoned.hInv[1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(opt::minimizeBfgs(fresh, std::vector<double>{0.0, 0.0}, {},
                                 {}, &poisoned),
               std::invalid_argument);
}

// ---------- CheckpointManager ----------

TEST(Manager, FreshWhenFileMissingRefusesOnHashMismatch) {
  const TempDir dir("manager");
  const std::string path = dir.file("run.ckpt");

  // Resume against a missing file: a fresh run (crash-loop friendly).
  auto fresh = CheckpointManager::open(path, 0, 42, /*resume=*/true);
  EXPECT_FALSE(fresh->resumedFromFile());
  fresh->flush();
  ASSERT_TRUE(fs::exists(path));

  // Same hash resumes; different hash is refused with the key named.
  auto again = CheckpointManager::open(path, 0, 42, /*resume=*/true);
  EXPECT_TRUE(again->resumedFromFile());
  try {
    CheckpointManager::open(path, 0, 43, /*resume=*/true);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("configHash"), std::string::npos)
        << e.what();
  }

  // Without --resume an existing file is simply overwritten on first write.
  auto overwrite = CheckpointManager::open(path, 0, 43, /*resume=*/false);
  EXPECT_FALSE(overwrite->resumedFromFile());
}

TEST(Manager, RecordsCompletionsAndInFlightState) {
  const TempDir dir("managerrec");
  const std::string path = dir.file("run.ckpt");
  CheckpointManager mgr(path, 0, 7);

  EXPECT_FALSE(mgr.completedFit("g0:a/H0").has_value());
  EXPECT_FALSE(mgr.inFlightState("g0:a/H0").has_value());

  opt::BfgsState st;
  st.x = {1.0, 2.0};
  st.grad = {0.5, 0.5};
  st.hInv = {1.0, 0.0, 0.0, 1.0};
  st.value = -10.0;
  st.iterations = 3;
  mgr.fitSink("g0:a/H0")(st);
  ASSERT_TRUE(mgr.inFlightState("g0:a/H0").has_value());
  EXPECT_EQ(mgr.inFlightState("g0:a/H0")->iterations, 3);

  FitResult fit;
  fit.hypothesis = Hypothesis::H0;
  fit.lnL = -100.5;
  fit.iterations = 9;
  mgr.recordCompleted("g0:a/H0", fit);
  // Completion supersedes the in-flight snapshot...
  EXPECT_FALSE(mgr.inFlightState("g0:a/H0").has_value());
  // ...and the recorded fit comes back with resume provenance filled in.
  const auto done = mgr.completedFit("g0:a/H0");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->lnL, -100.5);
  EXPECT_EQ(done->resumedFrom, path);
  EXPECT_EQ(done->iterationsReplayed, 9);

  // Everything above was persisted (everySeconds = 0): a second manager
  // loading the file sees the same state.
  auto reloaded = CheckpointManager::open(path, 0, 7, /*resume=*/true);
  EXPECT_TRUE(reloaded->resumedFromFile());
  EXPECT_TRUE(reloaded->completedFit("g0:a/H0").has_value());
}

// ---------- full-fit kill-and-resume ----------

struct Gene {
  seqio::CodonAlignment codons;
  std::shared_ptr<const tree::Tree> tree;
};

// Small simulated genes (same recipe as batch_test).
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
  o.bfgs.maxIterations = 6;
  return o;
}

void expectSameFit(const FitResult& a, const FitResult& b,
                   const std::string& label) {
  EXPECT_EQ(a.lnL, b.lnL) << label;
  EXPECT_EQ(a.params.kappa, b.params.kappa) << label;
  EXPECT_EQ(a.params.omega0, b.params.omega0) << label;
  EXPECT_EQ(a.params.omega2, b.params.omega2) << label;
  EXPECT_EQ(a.params.p0, b.params.p0) << label;
  EXPECT_EQ(a.params.p1, b.params.p1) << label;
  EXPECT_EQ(a.branchLengths, b.branchLengths) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.functionEvaluations, b.functionEvaluations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

TEST(FitResume, ShortBranchLengthVectorIsAKeyedErrorAtTheScan) {
  // The parser cannot know the tree's branch count, so a done-record with
  // too few branchLengths parses — but the site scan must refuse it with a
  // keyed error instead of reading out of bounds.
  const auto genes = makeGenes(1);
  const auto ctx = AnalysisContext::create(genes[0].codons, genes[0].tree,
                                           EngineKind::Slim, quickOptions());
  FitResult h1 = fitHypothesis(*ctx, Hypothesis::H1, ctx->options(),
                               ctx->likelihoodOptions());
  h1.branchLengths.resize(1);
  lik::EvalCounters counters;
  EXPECT_THROW(siteScanAtFit(*ctx, h1, ctx->likelihoodOptions(), nullptr,
                             counters),
               std::invalid_argument);
}

TEST(FitResume, InterruptedFitMatchesUninterruptedBitForBit) {
  const auto genes = makeGenes(1);
  const auto ctx = AnalysisContext::create(genes[0].codons, genes[0].tree,
                                           EngineKind::Slim, quickOptions());

  // Uninterrupted H1 fit, capturing every per-iteration snapshot.
  std::vector<opt::BfgsState> states;
  FitCheckpointHooks capture;
  capture.sink = [&states](const opt::BfgsState& st) {
    states.push_back(st);
  };
  const FitResult baseline =
      fitHypothesis(*ctx, Hypothesis::H1, ctx->options(),
                    ctx->likelihoodOptions(), nullptr, &capture);
  ASSERT_GT(states.size(), 2u);
  EXPECT_TRUE(baseline.resumedFrom.empty());

  // "Kill" at an arbitrary iteration k and resume from the snapshot: the
  // final lnL and parameter vector must be EXPECT_EQ-identical.
  for (const std::size_t k : {std::size_t{1}, states.size() / 2,
                              states.size() - 1}) {
    FitCheckpointHooks hooks;
    hooks.resumeFrom = states[k];
    hooks.resumedFromPath = "unit.ckpt";
    const FitResult resumed =
        fitHypothesis(*ctx, Hypothesis::H1, ctx->options(),
                      ctx->likelihoodOptions(), nullptr, &hooks);
    expectSameFit(resumed, baseline, "k=" + std::to_string(k));
    EXPECT_EQ(resumed.resumedFrom, "unit.ckpt");
    EXPECT_EQ(resumed.iterationsReplayed, states[k].iterations);
    // The resumed run does strictly less engine work than the full one.
    EXPECT_LT(resumed.counters.evaluations, baseline.counters.evaluations);
  }
}

TEST(BatchCheckpoint, CrashMidBatchThenResumeMatchesUninterrupted) {
  const auto genes = makeGenes(2);

  // Baseline: the uninterrupted batch.
  const auto runBatch = [&](CheckpointManager* mgr) {
    BatchOptions options;
    options.fit = quickOptions();
    options.checkpoint = mgr;
    BatchAnalysis batch(EngineKind::Slim, options);
    for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
    return batch.runAll();
  };
  const auto baseline = runBatch(nullptr);

  const TempDir dir("crash");
  const std::string path = dir.file("batch.ckpt");
  const std::uint64_t hash = 0x5eed;

  // "Crash" run: complete gene 0's H0 normally, then die mid-H1 — simulated
  // by a sink that persists through the manager and then throws after a few
  // iterations, exactly like a SIGKILL between two checkpoint writes.
  {
    CheckpointManager mgr(path, 0, hash);
    const auto ctx0Ptr = AnalysisContext::create(
        genes[0].codons, genes[0].tree, EngineKind::Slim, quickOptions());
    const AnalysisContext& ctx0 = *ctx0Ptr;

    const std::string keyH0 = fitTaskKey(0, "gene0", Hypothesis::H0);
    FitCheckpointHooks h0Hooks;
    h0Hooks.sink = mgr.fitSink(keyH0);
    const FitResult h0 =
        fitHypothesis(ctx0, Hypothesis::H0, ctx0.options(),
                      ctx0.likelihoodOptions(), nullptr, &h0Hooks);
    mgr.recordCompleted(keyH0, h0);

    const std::string keyH1 = fitTaskKey(0, "gene0", Hypothesis::H1);
    auto persist = mgr.fitSink(keyH1);
    int snapshots = 0;
    FitCheckpointHooks h1Hooks;
    h1Hooks.sink = [&](const opt::BfgsState& st) {
      persist(st);
      if (++snapshots == 3) throw std::runtime_error("simulated SIGKILL");
    };
    EXPECT_THROW(fitHypothesis(ctx0, Hypothesis::H1, ctx0.options(),
                               ctx0.likelihoodOptions(), nullptr, &h1Hooks),
                 std::runtime_error);
  }

  // The checkpoint on disk is complete and well-formed (atomic writes).
  const Checkpoint onDisk = Checkpoint::load(path);
  EXPECT_EQ(onDisk.completed.size(), 1u);
  EXPECT_EQ(onDisk.inFlight.size(), 1u);

  // Restart: resume the whole batch from the file.
  auto mgr = CheckpointManager::open(path, 0, hash, /*resume=*/true);
  ASSERT_TRUE(mgr->resumedFromFile());
  const auto resumed = runBatch(mgr.get());

  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t g = 0; g < baseline.size(); ++g) {
    expectSameFit(resumed[g].h0, baseline[g].h0, "h0 g=" + std::to_string(g));
    expectSameFit(resumed[g].h1, baseline[g].h1, "h1 g=" + std::to_string(g));
    EXPECT_EQ(resumed[g].lrt.statistic, baseline[g].lrt.statistic);
    EXPECT_EQ(resumed[g].posteriors.positiveSelectionBySite,
              baseline[g].posteriors.positiveSelectionBySite);
  }
  // Gene 0's H0 was skipped outright (no engine work), its H1 resumed
  // mid-flight; gene 1 ran fresh.
  EXPECT_EQ(resumed[0].h0.counters.evaluations, 0);
  EXPECT_EQ(resumed[0].h0.resumedFrom, path);
  EXPECT_EQ(resumed[0].h1.resumedFrom, path);
  EXPECT_GT(resumed[0].h1.iterationsReplayed, 0);
  EXPECT_LT(resumed[0].h1.counters.evaluations,
            baseline[0].h1.counters.evaluations);
  EXPECT_TRUE(resumed[1].h0.resumedFrom.empty());
  EXPECT_TRUE(resumed[1].h1.resumedFrom.empty());

  // After the resumed run every task is recorded complete; a second resume
  // skips everything and still reproduces the same results.
  auto mgr2 = CheckpointManager::open(path, 0, hash, /*resume=*/true);
  const auto replayed = runBatch(mgr2.get());
  for (std::size_t g = 0; g < baseline.size(); ++g) {
    expectSameFit(replayed[g].h0, baseline[g].h0, "replay h0");
    expectSameFit(replayed[g].h1, baseline[g].h1, "replay h1");
    EXPECT_EQ(replayed[g].h0.counters.evaluations, 0);
    EXPECT_EQ(replayed[g].h1.counters.evaluations, 0);
  }
}

TEST(BatchCheckpoint, ConcurrentTasksShareOneManagerSafely) {
  // Four genes, task-level fan-out, a checkpoint write on every iteration:
  // the manager's mutex is the only thing between concurrent sinks and the
  // shared checkpoint (exercised under TSan in CI).
  const auto genes = makeGenes(4);
  const TempDir dir("concurrent");
  const std::string path = dir.file("batch.ckpt");
  CheckpointManager mgr(path, 0, 99);

  BatchOptions options;
  options.fit = quickOptions();
  options.fit.tuning.numThreads = 4;
  options.fit.tuning.policy = ParallelPolicy::TaskLevel;
  options.checkpoint = &mgr;
  BatchAnalysis batch(EngineKind::Slim, options);
  for (const auto& gene : genes) batch.addGene(gene.codons, gene.tree);
  const auto tests = batch.runAll();
  ASSERT_EQ(tests.size(), genes.size());

  // All 8 fit tasks recorded complete, none left in flight.
  const Checkpoint onDisk = Checkpoint::load(path);
  EXPECT_EQ(onDisk.completed.size(), 8u);
  EXPECT_EQ(onDisk.inFlight.size(), 0u);

  // And the checkpointed batch is bit-identical to the plain one.
  BatchOptions plain = options;
  plain.checkpoint = nullptr;
  BatchAnalysis reference(EngineKind::Slim, plain);
  for (const auto& gene : genes) reference.addGene(gene.codons, gene.tree);
  const auto referenceTests = reference.runAll();
  for (std::size_t g = 0; g < genes.size(); ++g) {
    expectSameFit(tests[g].h0, referenceTests[g].h0, "g=" + std::to_string(g));
    expectSameFit(tests[g].h1, referenceTests[g].h1, "g=" + std::to_string(g));
  }
}

// ---------- config-level wiring ----------

TEST(ConfigHash, KeysTrajectoryShapingSettingsOnly) {
  Config base;
  base.seqfiles = {"a.fasta"};
  base.treefile = "t.nwk";
  base.fit.tuning.simd = linalg::SimdMode::Scalar;
  const auto h = checkpointConfigHash(base);

  // Bit-neutral knobs must not invalidate a checkpoint.
  Config c = base;
  c.fit.tuning.numThreads = 8;
  c.fit.tuning.blockSize = 7;
  c.fit.tuning.cachePropagators = 0;
  c.fit.tuning.policy = ParallelPolicy::TaskLevel;
  c.outfile = "elsewhere.txt";
  c.checkpointEverySec = 0;
  EXPECT_EQ(checkpointConfigHash(c), h);

  // Trajectory-shaping settings must.
  c = base;
  c.fit.tuning.gradient = GradientMode::Analytic;
  EXPECT_NE(checkpointConfigHash(c), h);
  c = base;
  c.fit.startJitterSeed = 5;
  EXPECT_NE(checkpointConfigHash(c), h);
  c = base;
  c.fit.bfgs.maxIterations = 7;
  EXPECT_NE(checkpointConfigHash(c), h);
  c = base;
  c.fit.initialParams.kappa = 3.0;
  EXPECT_NE(checkpointConfigHash(c), h);
  c = base;
  c.seqfiles.push_back("b.fasta");
  EXPECT_NE(checkpointConfigHash(c), h);
  c = base;
  c.engine = EngineKind::CodemlBaseline;
  EXPECT_NE(checkpointConfigHash(c), h);
}

// The hash of an unchanged configuration must never move: a checkpoint
// written before the move would be refused on --resume.  Host-independent
// (`simd = scalar`, unreadable input files).
TEST(ConfigHash, PinnedValuesDoNotMove) {
  Config c;
  c.seqfiles = {"/nonexistent/a.fasta"};
  c.treefile = "/nonexistent/t.nwk";
  c.fit.tuning.simd = linalg::SimdMode::Scalar;
  EXPECT_EQ(checkpointConfigHash(c), 0x10cc1ee565f40d37ull);
  c.fit.tuning.gradient = GradientMode::Analytic;
  EXPECT_EQ(checkpointConfigHash(c), 0x17728befaee93ac6ull);
  c.engine = EngineKind::CodemlBaseline;
  EXPECT_EQ(checkpointConfigHash(c), 0xc4e02a69b6b1730dull);
}

TEST(ConfigHash, CodemlPinsTheNaiveKernelsItRuns) {
  // engine = codeml runs the naive table whatever `simd =` says, so the key
  // must not split its checkpoints; under slim it picks the arithmetic and
  // must, whenever `auto` resolves to a vector level.
  Config autoSimd;
  autoSimd.seqfiles = {"a.fasta"};
  autoSimd.treefile = "t.nwk";
  Config scalarSimd = autoSimd;
  scalarSimd.fit.tuning.simd = linalg::SimdMode::Scalar;

  autoSimd.engine = scalarSimd.engine = EngineKind::CodemlBaseline;
  EXPECT_EQ(checkpointConfigHash(autoSimd), checkpointConfigHash(scalarSimd));

  autoSimd.engine = scalarSimd.engine = EngineKind::Slim;
  EXPECT_EQ(checkpointConfigHash(autoSimd) == checkpointConfigHash(scalarSimd),
            linalg::detectSimdLevel() == linalg::SimdLevel::Scalar);
}

TEST(ConfigHash, CoversInputFileContent) {
  // An alignment regenerated in place between crash and resume must
  // invalidate the checkpoint even though its path is unchanged.
  const TempDir dir("hashcontent");
  Config base;
  base.seqfiles = {dir.file("g.fasta")};
  base.treefile = dir.file("t.nwk");
  base.fit.tuning.simd = linalg::SimdMode::Scalar;
  std::ofstream(base.seqfiles.front()) << ">a\nATG\n";
  std::ofstream(base.treefile) << "(a:1,b:1);\n";

  const auto h = checkpointConfigHash(base);
  EXPECT_EQ(checkpointConfigHash(base), h);  // stable while files unchanged
  std::ofstream(base.seqfiles.front()) << ">a\nATT\n";
  EXPECT_NE(checkpointConfigHash(base), h);
}

// End-to-end through the config runner: fit with a checkpoint, then run
// again with --resume — both fits are skipped and reports carry provenance.
TEST(ConfigRun, CheckpointThenResumeSkipsCompletedFits) {
  const TempDir dir("configrun");
  {
    std::ofstream fasta(dir.file("gene.fasta"));
    fasta << ">human\nATGGCTAAATTTCCCGGGACTTGCGGAGAT\n"
             ">chimp\nATGGCTAAATTCCCCGGGACTTGCGGAGAT\n"
             ">gorilla\nATGGCAAAATTTCCCGGAACTTGTGGAGAC\n"
             ">orangutan\nATGGCTAAGTTTCCAGGGACATGCGGTGAT\n"
             ">macaque\nATGGCGAAGTTTCCAGGAACATGTGGTGAC\n";
    std::ofstream nwk(dir.file("gene.nwk"));
    nwk << "(((human:0.02,chimp:0.02) #1:0.015,gorilla:0.04):0.02,"
           "(orangutan:0.08,macaque:0.10):0.03);\n";
  }
  const std::string ctl = "seqfile = " + dir.file("gene.fasta") + "\n" +
                          "treefile = " + dir.file("gene.nwk") + "\n" +
                          "outfile = " + dir.file("report.txt") + "\n" +
                          "checkpoint = " + dir.file("run.ckpt") + "\n" +
                          "checkpointEverySec = 0\n"
                          "maxIterations = 4\n";

  Config config = Config::parseString(ctl);
  EXPECT_EQ(config.checkpointPath, dir.file("run.ckpt"));
  EXPECT_EQ(config.checkpointEverySec, 0.0);
  const auto first = runConfig(config).tests.front();
  ASSERT_TRUE(fs::exists(dir.file("run.ckpt")));
  EXPECT_TRUE(first.h0.resumedFrom.empty());

  // Resume: everything is already done — identical results, zero engine
  // work, provenance in the result and both reports.
  Config again = config;
  again.resume = true;
  const auto resumed = runConfig(again);
  writeRunReports(again, resumed, /*json=*/false);
  const auto& second = resumed.tests.front();
  expectSameFit(second.h0, first.h0, "resumed h0");
  expectSameFit(second.h1, first.h1, "resumed h1");
  EXPECT_EQ(second.h0.counters.evaluations, 0);
  EXPECT_EQ(second.h0.resumedFrom, dir.file("run.ckpt"));
  EXPECT_EQ(second.h1.iterationsReplayed, second.h1.iterations);

  const std::string text = slurp(dir.file("report.txt"));
  EXPECT_NE(text.find("resumed from"), std::string::npos);
  EXPECT_NE(text.find("iterations replayed"), std::string::npos);
  std::ostringstream json;
  writeJsonTestReport(json, second, config.engine);
  EXPECT_NE(json.str().find("\"resumedFrom\""), std::string::npos);
  EXPECT_NE(json.str().find("\"iterationsReplayed\""), std::string::npos);

  // A changed configuration refuses the old checkpoint, keyed.
  Config changed = again;
  changed.fit.bfgs.maxIterations = 9;
  EXPECT_THROW(runConfig(changed), ConfigError);

  // --resume without a checkpoint path is a usage error.
  Config noPath = config;
  noPath.checkpointPath.clear();
  noPath.resume = true;
  EXPECT_THROW(runConfig(noPath), std::invalid_argument);
}

}  // namespace
}  // namespace slim::core
