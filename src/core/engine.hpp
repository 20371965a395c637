#pragma once
// Engine presets: the two systems compared throughout the paper's
// evaluation.  Both run the same parser, tree, optimizer and pruning
// machinery; they differ exactly in the likelihood-kernel options.

#include "lik/options.hpp"

namespace slim::core {

enum class EngineKind {
  CodemlBaseline,  ///< CodeML v4.4c stand-in (naive kernels, Eq. 9, per-site gemv).
  Slim,            ///< SlimCodeML (opt kernels, Eq. 10 syrk, bundled BLAS-3).
  SlimParallel,    ///< Slim + all-core pattern-block sweep + propagator cache.
};

constexpr const char* engineName(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::CodemlBaseline: return "CodeML";
    case EngineKind::Slim: return "SlimCodeML";
    case EngineKind::SlimParallel: return "SlimCodeML-MT";
  }
  return "?";
}

constexpr lik::LikelihoodOptions engineOptions(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::CodemlBaseline: return lik::codemlBaselineOptions();
    case EngineKind::Slim: return lik::slimOptions();
    case EngineKind::SlimParallel: return lik::slimParallelOptions();
  }
  return lik::slimOptions();
}

/// Where the workers go when several *independent* fit tasks are available
/// (the H0/H1 pair of one gene, or the genes of a batch): fanning whole
/// tasks across the pool, gcodeml-style, or keeping each task sequential
/// and parallelizing inside its pattern sweep.  Either way each evaluation's
/// arithmetic is unchanged, so results are bit-identical across policies.
enum class ParallelPolicy {
  Auto,          ///< Task-level when tasks >= workers, pattern-level otherwise.
  TaskLevel,     ///< One worker per fit task; evaluators run single-threaded.
  PatternLevel,  ///< Tasks run sequentially; each evaluator uses all workers.
};

constexpr const char* parallelPolicyName(ParallelPolicy p) noexcept {
  switch (p) {
    case ParallelPolicy::Auto: return "auto";
    case ParallelPolicy::TaskLevel: return "task";
    case ParallelPolicy::PatternLevel: return "pattern";
  }
  return "?";
}

/// How the optimizer obtains gradients of the likelihood objective
/// (`gradient =` in the control file).
enum class GradientMode {
  /// Forward/central finite differences, one evaluation per coordinate
  /// (the default).  The probes run one after another on the fit's
  /// evaluator, whose threads parallelize each one; values are
  /// bit-identical for every thread count.
  FiniteDiff,
  /// Hybrid analytic gradient: branch-length derivatives from one extra
  /// pruning-style sweep (dP/dt via the eigendecomposition), finite
  /// differences only for the few substitution/mixture parameters.
  /// Eliminates the dominant per-branch FD axis (>= 3x fewer evaluations
  /// per fit on realistic trees).
  Analytic,
};

constexpr const char* gradientModeName(GradientMode g) noexcept {
  switch (g) {
    case GradientMode::FiniteDiff: return "fd";
    case GradientMode::Analytic: return "analytic";
  }
  return "?";
}

/// Tuning overrides layered on an engine preset (values < 0 keep the
/// preset's setting).  Kept out of EngineKind so parallelism and caching
/// stay orthogonal to the paper's kernel comparison.
struct LikelihoodTuning {
  int numThreads = -1;        ///< see lik::LikelihoodOptions::numThreads
  int blockSize = -1;         ///< see lik::LikelihoodOptions::blockSize
  int cachePropagators = -1;  ///< tri-state: -1 preset, 0 off, 1 on
  /// Nested-parallelism policy for schedulers running independent fit tasks
  /// (core::TaskScheduler / core::BatchAnalysis); a single fit ignores it.
  ParallelPolicy policy = ParallelPolicy::Auto;
  /// Gradient computation for the BFGS fits.
  GradientMode gradient = GradientMode::FiniteDiff;
  /// SIMD kernel selection for the Opt-flavor hot paths (`simd =` ctl key);
  /// see lik::LikelihoodOptions::simd.  The resolved level is recorded in
  /// FitResult::simd and the text/JSON reports.
  linalg::SimdMode simd = linalg::SimdMode::Auto;
  /// Compute-backend selection (`backend =` ctl key); see
  /// lik::LikelihoodOptions::backend.  The resolved kind is recorded in
  /// FitResult::backend and the text/JSON reports.
  backend::BackendMode backend = backend::BackendMode::Auto;
};

constexpr lik::LikelihoodOptions resolvedEngineOptions(
    EngineKind e, const LikelihoodTuning& tuning) noexcept {
  lik::LikelihoodOptions o = engineOptions(e);
  if (tuning.numThreads >= 0) o.numThreads = tuning.numThreads;
  if (tuning.blockSize >= 0) o.blockSize = tuning.blockSize;
  if (tuning.cachePropagators >= 0)
    o.cachePropagators = tuning.cachePropagators != 0;
  o.simd = tuning.simd;
  o.backend = tuning.backend;
  return o;
}

}  // namespace slim::core
