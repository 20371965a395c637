#pragma once
// Likelihood-engine configuration.
//
// The paper's CodeML-vs-SlimCodeML comparison decomposes into three
// orthogonal choices — kernel flavor, reconstruction path, propagation
// strategy — each independently selectable here so that benches can ablate
// them; the two named presets reproduce the paper's two systems.

#include "backend/compute_backend.hpp"
#include "backend/expm_pade.hpp"
#include "expm/codon_eigen_system.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"

namespace slim::lik {

/// How P(t) is applied to the conditional probability vectors of all site
/// patterns along one branch.
enum class PropagationStrategy {
  /// One matrix x vector product P w_h per site pattern (CodeML, Sec. III-B
  /// first paragraph), run as the panel product W P^T: row h of the table's
  /// gemmNT is exactly P w_h.
  PerSiteGemv,
  /// One gemm over the whole pattern bundle (Sec. III-B "single matrix x
  /// matrix operation ... including all sites"; BLAS level 3).
  BundledGemm,
};

constexpr const char* propagationStrategyName(PropagationStrategy s) noexcept {
  return s == PropagationStrategy::PerSiteGemv ? "per-site-gemv"
                                               : "bundled-gemm";
}

struct LikelihoodOptions {
  linalg::Flavor flavor = linalg::Flavor::Opt;
  expm::ReconstructionPath reconstruction = expm::ReconstructionPath::Syrk;
  PropagationStrategy propagation = PropagationStrategy::BundledGemm;
  /// Rescale a pattern's conditional vector when its maximum drops below
  /// this (underflow protection for deep trees).
  double scalingThreshold = 1e-200;

  // --- pattern-blocked parallel engine (post-paper extensions).  The
  // defaults reproduce the single-threaded, uncached behaviour bit for bit,
  // so the paper's Naive-vs-Opt comparisons stay isolated from these knobs.
  // The per-pattern arithmetic is independent of the block partition and of
  // which thread executes a block, so the log-likelihood is identical (to
  // the last bit) for every thread count and block size. ---

  /// Evaluation threads for the per-class pattern-block sweep; 0 picks the
  /// hardware concurrency.
  int numThreads = 1;
  /// Site patterns per panel block (the unit of work distribution and of
  /// the level-3 kernel calls); 0 puts all patterns in one block.
  int blockSize = 64;
  /// Persist propagators across evaluations keyed by (omega class, exact
  /// branch length) so optimizer line searches and finite-difference
  /// gradients that move few coordinates skip redundant
  /// eigen-reconstructions; cached and uncached likelihoods are
  /// bit-identical.  The cache flushes whenever the substitution parameters
  /// (hence the eigensystems) change, and once it holds 2048 propagators.
  /// Hit/miss counts are surfaced through EvalCounters.
  bool cachePropagators = false;

  /// SIMD kernel selection under Flavor::Opt (`simd =` ctl key).  Auto
  /// picks the widest level compiled in and supported by the CPU; an
  /// explicit avx2/avx512 request fails evaluator construction when
  /// unavailable.  Ignored under Flavor::Naive, which runs the naive table
  /// and reports `scalar`.  Each level is bit-identical to itself across
  /// thread counts and block sizes; scalar is the bit-exact reference and
  /// AVX levels agree with it to <= 1e-10 relative on lnL.
  linalg::SimdMode simd = linalg::SimdMode::Auto;

  /// Compute backend under Flavor::Opt (`backend =` ctl key).  Auto
  /// resolves to `reference` (the scalar table) when the SIMD level
  /// resolves to scalar and to `simd` otherwise, and never to `blas`
  /// (vendor kernels reassociate, so leaving the deterministic default is
  /// an explicit opt-in).  An explicit backend missing from the build (blas
  /// without SLIM_WITH_BLAS) fails evaluator construction.  Ignored under
  /// Flavor::Naive, which reports `reference`.
  backend::BackendMode backend = backend::BackendMode::Auto;

  /// Propagator builder (`expm =` ctl key).  Eigen is the paper's
  /// symmetric-eigendecomposition pipeline (reversible Q only); Adaptive is
  /// the Higham–Al-Mohy scaling-and-squaring expm, correct for general rate
  /// matrices.  Both run their products on the evaluator's kernel table.
  backend::ExpmAlgorithm expm = backend::ExpmAlgorithm::Eigen;
};

/// The CodeML v4.4c stand-in: hand-rolled loop kernels, Eq. 9 reconstruction,
/// per-site matrix x vector propagation.
constexpr LikelihoodOptions codemlBaselineOptions() noexcept {
  return {linalg::Flavor::Naive, expm::ReconstructionPath::Gemm,
          PropagationStrategy::PerSiteGemv, 1e-200};
}

/// SlimCodeML as evaluated in the paper: tuned kernels, Eq. 10 dsyrk
/// reconstruction, per-site propagation bundled into BLAS-3.
constexpr LikelihoodOptions slimOptions() noexcept {
  return {linalg::Flavor::Opt, expm::ReconstructionPath::Syrk,
          PropagationStrategy::BundledGemm, 1e-200};
}

/// The production preset: the slim kernels plus every post-paper lever —
/// all hardware threads over pattern blocks and the persistent propagator
/// cache (exact-keyed, so likelihoods match slimOptions() bit for bit).
constexpr LikelihoodOptions slimParallelOptions() noexcept {
  LikelihoodOptions o = slimOptions();
  o.numThreads = 0;
  o.cachePropagators = true;
  return o;
}

}  // namespace slim::lik
