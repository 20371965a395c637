#include "tune/autotune.hpp"

#include <chrono>
#include <limits>
#include <memory>

#include "bio/genetic_code.hpp"
#include "core/batch.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/frequencies.hpp"
#include "seqio/alignment.hpp"
#include "sim/datasets.hpp"
#include "support/host_info.hpp"
#include "support/parallel.hpp"

namespace slim::tune {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

linalg::SimdMode modeForLevel(linalg::SimdLevel level) {
  switch (level) {
    case linalg::SimdLevel::Scalar: return linalg::SimdMode::Scalar;
    case linalg::SimdLevel::Avx2: return linalg::SimdMode::Avx2;
    case linalg::SimdLevel::Avx512: return linalg::SimdMode::Avx512;
  }
  return linalg::SimdMode::Scalar;
}

backend::BackendMode modeForBackend(backend::BackendKind kind) {
  switch (kind) {
    case backend::BackendKind::Reference: return backend::BackendMode::Reference;
    case backend::BackendKind::Simd: return backend::BackendMode::Simd;
    case backend::BackendKind::Blas: return backend::BackendMode::Blas;
  }
  return backend::BackendMode::Reference;
}

/// Fastest-of-`repeats` timing of `evals` warm logLikelihood calls.
double timeEvaluator(lik::BranchSiteLikelihood& eval,
                     const model::BranchSiteParams& params, int evals,
                     int repeats) {
  eval.logLikelihood(params);  // warm-up: first-eval eigen + propagators
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    for (int e = 0; e < evals; ++e) eval.logLikelihood(params);
    best = std::min(best, secondsSince(t0) / evals);
  }
  return best;
}

}  // namespace

AutotuneResult autotune(const AutotuneOptions& options) {
  const auto start = Clock::now();
  AutotuneResult result;

  const int threads = support::resolveThreadCount(options.threads);
  const int evals = std::max(1, options.evalsPerConfig);
  const int repeats = std::max(1, options.repeats);

  // The shared microbenchmark gene.
  const auto& gc = bio::GeneticCode::universal();
  const auto ds =
      sim::makeSweepDataset(options.numSpecies, options.seed, options.numCodons);
  const auto ca = seqio::encodeCodons(ds.alignment, gc);
  const auto patterns = seqio::compressPatterns(ca);
  const auto pi =
      model::estimateCodonFrequencies(ca, model::CodonFrequencyModel::F3x4);
  const auto params = sim::defaultSimulationParams();

  const auto measureEval = [&](backend::BackendKind kind,
                               linalg::SimdLevel level, int block,
                               int numThreads) {
    lik::LikelihoodOptions opts = lik::slimOptions();
    opts.simd = modeForLevel(level);
    opts.backend = modeForBackend(kind);
    opts.blockSize = block;
    opts.numThreads = numThreads;
    lik::BranchSiteLikelihood eval(ca, patterns, pi, ds.tree,
                                   model::Hypothesis::H1, opts);
    const double secs = timeEvaluator(eval, params, evals, repeats);
    result.measurements.push_back(
        {std::string("eval/backend=") + backend::backendKindName(kind) +
             "/simd=" + linalg::simdLevelName(level) +
             "/block=" + std::to_string(block) +
             "/threads=" + std::to_string(numThreads),
         secs});
    return secs;
  };

  // --- Phase 1: backend x SIMD level x block size at the tuned thread
  // count.  The SIMD-level axis only exists under the simd backend; the
  // reference and (vendor-ordered) blas kernels ignore the lane width.
  std::vector<linalg::SimdLevel> levels{linalg::SimdLevel::Scalar};
  for (const auto level :
       {linalg::SimdLevel::Avx2, linalg::SimdLevel::Avx512})
    if (linalg::simdLevelAvailable(level)) levels.push_back(level);

  std::vector<backend::BackendKind> backends;
  for (const auto kind :
       {backend::BackendKind::Reference, backend::BackendKind::Simd,
        backend::BackendKind::Blas})
    if (backend::backendCompiled(kind)) backends.push_back(kind);

  backend::BackendKind bestBackend = backend::BackendKind::Reference;
  linalg::SimdLevel bestLevel = linalg::SimdLevel::Scalar;
  int bestBlock = options.blockSizes.empty() ? 64 : options.blockSizes.front();
  double bestSecs = std::numeric_limits<double>::infinity();
  for (const auto kind : backends) {
    const std::vector<linalg::SimdLevel> kindLevels =
        kind == backend::BackendKind::Simd
            ? levels
            : std::vector<linalg::SimdLevel>{linalg::SimdLevel::Scalar};
    for (const auto level : kindLevels) {
      for (const int block : options.blockSizes) {
        const double secs = measureEval(kind, level, block, threads);
        if (secs < bestSecs) {
          bestSecs = secs;
          bestBackend = kind;
          bestLevel = level;
          bestBlock = block;
        }
      }
    }
  }

  // --- Phase 2: thread sweep at the winning backend/SIMD/block config ---
  int bestThreads = threads;
  for (int t = 1; t < threads; t *= 2) {
    const double secs = measureEval(bestBackend, bestLevel, bestBlock, t);
    if (secs < bestSecs) {
      bestSecs = secs;
      bestThreads = t;
    }
  }
  // --- Phase 3: batch fan-out policy race (TaskLevel vs PatternLevel) ---
  core::ParallelPolicy bestPolicy = core::ParallelPolicy::Auto;
  if (options.tunePolicy && bestThreads > 1) {
    const int numGenes =
        std::max(2, options.policyGenesPerWorker * bestThreads);
    double bestPolicySecs = std::numeric_limits<double>::infinity();
    for (const auto policy : {core::ParallelPolicy::TaskLevel,
                              core::ParallelPolicy::PatternLevel}) {
      core::BatchOptions batchOptions;
      batchOptions.fit.bfgs.maxIterations = std::max(1, options.policyIterations);
      batchOptions.fit.tuning.numThreads = bestThreads;
      batchOptions.fit.tuning.blockSize = bestBlock;
      batchOptions.fit.tuning.simd = modeForLevel(bestLevel);
      batchOptions.fit.tuning.backend = modeForBackend(bestBackend);
      batchOptions.fit.tuning.policy = policy;
      core::BatchAnalysis batch(core::EngineKind::Slim, batchOptions);
      const auto tree = std::make_shared<const tree::Tree>(ds.tree);
      for (int g = 0; g < numGenes; ++g) batch.addGene(ca, tree);
      batch.runAll();  // warm-up (pattern tables, shards)
      const auto t0 = Clock::now();
      batch.runAll();
      const double secs = secondsSince(t0);
      result.measurements.push_back(
          {std::string("batch/parallel=") + core::parallelPolicyName(policy) +
               "/genes=" + std::to_string(numGenes) +
               "/threads=" + std::to_string(bestThreads),
           secs});
      if (secs < bestPolicySecs) {
        bestPolicySecs = secs;
        bestPolicy = policy;
      }
    }
  }

  core::TuningProfile& p = result.profile;
  p.host = support::hostName();
  p.simdDetected = linalg::simdLevelName(linalg::detectSimdLevel());
  p.hardwareThreads = support::hardwareThreads();
  p.numThreads = bestThreads;
  p.blockSize = bestBlock;
  p.policy = bestPolicy;
  p.simd = modeForLevel(bestLevel);
  p.backend = modeForBackend(bestBackend);
  p.secondsPerEval = bestSecs;
  result.seconds = secondsSince(start);
  return result;
}

}  // namespace slim::tune
