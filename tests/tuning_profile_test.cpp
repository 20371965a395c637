// Per-host tuning profiles (core/tuning_profile.hpp) and the autotuner:
// exact round trips, the strict parser's refusal matrix (corrupted,
// truncated, version-mismatched, foreign-host files must throw keyed
// ConfigErrors, never mis-tune silently), the fill-only-defaults merge
// semantics, and `tuning = auto` resolution including the silent fallback
// when no profile exists.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/config.hpp"
#include "core/tuning_profile.hpp"
#include "support/host_info.hpp"
#include "tune/autotune.hpp"

namespace {

using namespace slim;
using core::Config;
using core::ConfigError;
using core::ParallelPolicy;
using core::TuningProfile;

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (removed on destruction).
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) /
             ("slim_tuning_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// Scoped SLIMCODEML_TUNING override (restores the prior value on exit).
struct ScopedTuningEnv {
  std::string saved;
  bool hadValue;
  explicit ScopedTuningEnv(const std::string& value) {
    const char* old = std::getenv("SLIMCODEML_TUNING");
    hadValue = old != nullptr;
    if (hadValue) saved = old;
    ::setenv("SLIMCODEML_TUNING", value.c_str(), 1);
  }
  ~ScopedTuningEnv() {
    if (hadValue)
      ::setenv("SLIMCODEML_TUNING", saved.c_str(), 1);
    else
      ::unsetenv("SLIMCODEML_TUNING");
  }
};

/// A fully-populated profile bound to the running host (so load() accepts).
TuningProfile localProfile() {
  TuningProfile p;
  p.host = support::hostName();
  p.simdDetected = linalg::simdLevelName(linalg::detectSimdLevel());
  p.hardwareThreads = support::hardwareThreads();
  p.numThreads = 3;
  p.blockSize = 48;
  p.policy = ParallelPolicy::TaskLevel;
  p.simd = linalg::SimdMode::Scalar;
  p.backend = backend::BackendMode::Reference;
  p.secondsPerEval = 0.1 + 0.2;  // not exactly representable: hexDouble test
  return p;
}

// ---------- format round trips ----------

TEST(TuningProfileFormat, SerializeParseRoundTripIsExact) {
  const TuningProfile p = localProfile();
  const TuningProfile q = TuningProfile::parse(p.serialize(), "roundtrip");
  EXPECT_EQ(q.host, p.host);
  EXPECT_EQ(q.simdDetected, p.simdDetected);
  EXPECT_EQ(q.hardwareThreads, p.hardwareThreads);
  EXPECT_EQ(q.numThreads, p.numThreads);
  EXPECT_EQ(q.blockSize, p.blockSize);
  EXPECT_EQ(q.policy, p.policy);
  EXPECT_EQ(q.simd, p.simd);
  EXPECT_EQ(q.backend, p.backend);
  EXPECT_EQ(q.secondsPerEval, p.secondsPerEval);  // bit-exact via hex float
  // Serialization is canonical: a round trip reproduces the bytes.
  EXPECT_EQ(q.serialize(), p.serialize());
}

TEST(TuningProfileFormat, SaveLoadThroughFile) {
  const TempDir dir("saveload");
  const TuningProfile p = localProfile();
  p.save(dir.file("host.tuning"));
  const TuningProfile q = TuningProfile::load(dir.file("host.tuning"));
  EXPECT_EQ(q.serialize(), p.serialize());
}

// ---------- the refusal matrix ----------

TEST(TuningProfileFormat, RefusesCorruptedAndMismatchedInput) {
  const std::string good = localProfile().serialize();

  // Truncation: drop the trailing "end\n".
  EXPECT_THROW(TuningProfile::parse(good.substr(0, good.size() - 4), "t"),
               ConfigError);
  // Bad magic.
  EXPECT_THROW(TuningProfile::parse("not-a-profile v1\nend\n", "t"),
               ConfigError);
  // Version from the future.
  std::string bumped = good;
  bumped.replace(bumped.find(" v2\n"), 4, " v3\n");
  EXPECT_THROW(TuningProfile::parse(bumped, "t"), ConfigError);
  // Unknown field.
  EXPECT_THROW(
      TuningProfile::parse(good.substr(0, good.find("end\n")) +
                               "mystery 7\nend\n",
                           "t"),
      ConfigError);
  // Malformed integer.
  std::string badInt = good;
  badInt.replace(badInt.find("blockSize 48"), 12, "blockSize 4x");
  EXPECT_THROW(TuningProfile::parse(badInt, "t"), ConfigError);
  // Content after 'end'.
  EXPECT_THROW(TuningProfile::parse(good + "trailing\n", "t"), ConfigError);
  // Missing host.
  std::string noHost = good;
  const auto hostPos = noHost.find("host ");
  noHost.erase(hostPos, noHost.find('\n', hostPos) - hostPos + 1);
  EXPECT_THROW(TuningProfile::parse(noHost, "t"), ConfigError);
  // Empty file.
  EXPECT_THROW(TuningProfile::parse("", "t"), ConfigError);

  // The error message carries the origin (keyed diagnostics).
  try {
    TuningProfile::parse(good + "trailing\n", "origin.tuning");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("origin.tuning"), std::string::npos);
  }
}

// v1 files (written before the compute-backend axis existed) must keep
// loading: no `backend` line, field stays at the Auto sentinel.
TEST(TuningProfileFormat, V1ProfileParsesWithBackendUnset) {
  std::string v1 = localProfile().serialize();
  v1.replace(v1.find(" v2\n"), 4, " v1\n");
  const auto backendPos = v1.find("backend ");
  v1.erase(backendPos, v1.find('\n', backendPos) - backendPos + 1);

  const TuningProfile q = TuningProfile::parse(v1, "legacy");
  EXPECT_EQ(q.backend, backend::BackendMode::Auto);
  EXPECT_EQ(q.blockSize, 48);  // the rest of the fields read normally
  EXPECT_EQ(q.numThreads, 3);
}

// A profile tuned with a backend this build lacks (e.g. blas without
// -DSLIM_WITH_BLAS) must refuse at load(), naming the backend.
TEST(TuningProfileLoad, RefusesUnavailableTunedBackend) {
  if (backend::backendCompiled(backend::BackendKind::Blas))
    GTEST_SKIP() << "blas backend available in this build";
  const TempDir dir("blasrefuse");
  TuningProfile p = localProfile();
  p.backend = backend::BackendMode::Blas;
  p.save(dir.file("blas.tuning"));
  try {
    TuningProfile::load(dir.file("blas.tuning"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("blas"), std::string::npos);
  }
}

TEST(TuningProfileLoad, RefusesMissingFileAndForeignHost) {
  const TempDir dir("refuse");
  EXPECT_THROW(TuningProfile::load(dir.file("absent.tuning")), ConfigError);

  TuningProfile foreign = localProfile();
  foreign.host = "some-other-machine";
  foreign.save(dir.file("foreign.tuning"));
  // parse() accepts it (no host check there; tests need to build these)...
  EXPECT_NO_THROW(TuningProfile::parse(foreign.serialize(), "t"));
  // ...load() refuses it with the host named in the message.
  try {
    TuningProfile::load(dir.file("foreign.tuning"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("some-other-machine"),
              std::string::npos);
  }
}

TEST(TuningProfileLoad, RefusesSimdLevelThisHostCannotRun) {
  // Find a level the host cannot run; skip on machines that run everything.
  linalg::SimdMode unavailable = linalg::SimdMode::Auto;
  if (!linalg::simdLevelAvailable(linalg::SimdLevel::Avx512))
    unavailable = linalg::SimdMode::Avx512;
  else if (!linalg::simdLevelAvailable(linalg::SimdLevel::Avx2))
    unavailable = linalg::SimdMode::Avx2;
  if (unavailable == linalg::SimdMode::Auto) GTEST_SKIP();

  const TempDir dir("simd");
  TuningProfile p = localProfile();
  p.simd = unavailable;
  p.save(dir.file("wide.tuning"));
  EXPECT_THROW(TuningProfile::load(dir.file("wide.tuning")), ConfigError);
}

// ---------- merge semantics ----------

TEST(TuningProfileApply, FillsOnlyFieldsStillAtTheirDefaults) {
  const TuningProfile p = localProfile();

  core::LikelihoodTuning untouched;  // all sentinels
  p.applyTo(untouched);
  EXPECT_EQ(untouched.numThreads, 3);
  EXPECT_EQ(untouched.blockSize, 48);
  EXPECT_EQ(untouched.policy, ParallelPolicy::TaskLevel);
  EXPECT_EQ(untouched.simd, linalg::SimdMode::Scalar);

  core::LikelihoodTuning explicitly;
  explicitly.numThreads = 7;
  explicitly.blockSize = 16;
  explicitly.policy = ParallelPolicy::PatternLevel;
  explicitly.simd = linalg::SimdMode::Auto;  // the one field left default
  p.applyTo(explicitly);
  EXPECT_EQ(explicitly.numThreads, 7);   // ctl key beats profile
  EXPECT_EQ(explicitly.blockSize, 16);
  EXPECT_EQ(explicitly.policy, ParallelPolicy::PatternLevel);
  EXPECT_EQ(explicitly.simd, linalg::SimdMode::Scalar);  // default: filled
}

// ---------- config integration ----------

TEST(ResolveTuning, CtlKeyParsesAndAutoFallsBackWhenNoProfileExists) {
  const TempDir dir("auto");
  const ScopedTuningEnv env(dir.file("absent.tuning"));

  const Config cfg = Config::parseString(
      "seqfile = g.fasta\ntreefile = t.nwk\ntuning = auto\n");
  EXPECT_EQ(cfg.tuningPath, "auto");

  // No profile at the default path: silently unchanged (defaults stand).
  const Config resolved = core::resolveTuningProfile(cfg);
  EXPECT_EQ(resolved.fit.tuning.numThreads, -1);
  EXPECT_EQ(resolved.fit.tuning.blockSize, -1);
  EXPECT_EQ(resolved.fit.tuning.simd, linalg::SimdMode::Auto);
}

TEST(ResolveTuning, AutoLoadsTheDefaultPathProfileWhenPresent) {
  const TempDir dir("autoload");
  const ScopedTuningEnv env(dir.file("host.tuning"));
  localProfile().save(dir.file("host.tuning"));

  Config cfg;
  cfg.tuningPath = "auto";
  const Config resolved = core::resolveTuningProfile(cfg);
  EXPECT_EQ(resolved.fit.tuning.numThreads, 3);
  EXPECT_EQ(resolved.fit.tuning.blockSize, 48);
  EXPECT_EQ(resolved.fit.tuning.policy, ParallelPolicy::TaskLevel);
  EXPECT_EQ(resolved.fit.tuning.simd, linalg::SimdMode::Scalar);
}

TEST(ResolveTuning, ExplicitPathMustExistAndCorruptAutoProfileIsLoud) {
  const TempDir dir("strict");

  // An explicit `tuning = <path>` never falls back silently.
  Config explicitCfg;
  explicitCfg.tuningPath = dir.file("absent.tuning");
  EXPECT_THROW(core::resolveTuningProfile(explicitCfg), ConfigError);

  // `tuning = auto` skips a *missing* file only; a corrupt one still throws.
  const ScopedTuningEnv env(dir.file("corrupt.tuning"));
  std::ofstream(dir.file("corrupt.tuning")) << "garbage\n";
  Config autoCfg;
  autoCfg.tuningPath = "auto";
  EXPECT_THROW(core::resolveTuningProfile(autoCfg), ConfigError);
}

// ---------- the autotuner ----------

TEST(Autotune, ProducesALoadableProfileBoundToThisHost) {
  tune::AutotuneOptions options;
  options.numSpecies = 5;
  options.numCodons = 24;
  options.threads = 1;  // keep the smoke run cheap; skips the policy race
  options.evalsPerConfig = 1;
  options.repeats = 1;
  options.blockSizes = {0, 32};
  const tune::AutotuneResult result = tune::autotune(options);

  // Two SIMD-level-agnostic candidates per level, at least scalar level.
  EXPECT_GE(result.measurements.size(), 2u);
  for (const auto& m : result.measurements) EXPECT_GT(m.secondsPerUnit, 0.0);

  const TuningProfile& p = result.profile;
  EXPECT_EQ(p.host, support::hostName());
  EXPECT_EQ(p.hardwareThreads, support::hardwareThreads());
  EXPECT_EQ(p.numThreads, 1);
  EXPECT_TRUE(p.blockSize == 0 || p.blockSize == 32);
  EXPECT_NE(p.simd, linalg::SimdMode::Auto);  // an explicit winner
  EXPECT_EQ(p.policy, ParallelPolicy::Auto);  // 1 worker: race skipped
  EXPECT_GT(p.secondsPerEval, 0.0);

  // The full circle: save, load (host check passes), apply.
  const TempDir dir("tuned");
  p.save(dir.file("auto.tuning"));
  const TuningProfile loaded = TuningProfile::load(dir.file("auto.tuning"));
  core::LikelihoodTuning tuning;
  loaded.applyTo(tuning);
  EXPECT_EQ(tuning.numThreads, 1);
  EXPECT_EQ(tuning.blockSize, p.blockSize);
}

}  // namespace
