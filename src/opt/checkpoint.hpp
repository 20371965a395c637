#pragma once
// Optimizer trajectory snapshots — the opt-layer half of checkpoint/restart.
//
// A genome-scan fit can run for hours; on preemptible infrastructure
// (gcodeml's operating regime, PAPERS.md) a killed process must not lose
// every converged iteration.  The BFGS driver (bfgs.cpp) therefore accepts
// an optional checkpoint sink — called after the initial gradient and after
// every completed iteration with a state from which the *same trajectory*
// can continue — and an optional source state to resume from.  Because each
// snapshot captures the full internal state (iterate, gradient, inverse
// Hessian, counters) and the objectives are deterministic in their input
// bits, a resumed run replays the remaining iterations bit-identically to
// the uninterrupted one.
//
// Serialization (exact-bit hex-float text, versioning, config hashes,
// atomic file I/O) lives above this layer in core/checkpoint.hpp; here the
// state is a plain in-memory struct so the optimizer stays free of any
// file-format dependency.

#include <functional>
#include <optional>
#include <vector>

namespace slim::opt {

/// Everything minimizeBfgs needs to continue a run as if never interrupted.
struct BfgsState {
  std::vector<double> x;     ///< Last accepted iterate.
  double value = 0;          ///< f(x).
  std::vector<double> grad;  ///< Gradient at x.
  std::vector<double> hInv;  ///< n*n row-major inverse-Hessian approximation.
  int iterations = 0;        ///< Completed outer iterations.
  long functionEvaluations = 0;
  long gradientEvaluations = 0;
  long gradientSweeps = 0;
  int analyticCoordinates = 0;
  int slowProgress = 0;  ///< Consecutive below-f-tolerance improvements.
};

/// Called by the driver with a resumable snapshot.  Implementations decide
/// persistence and throttling (core::CheckpointManager serializes and
/// atomically writes, at most once per checkpointEverySec); an exception
/// thrown from a sink aborts the optimization and propagates to the caller.
using BfgsCheckpointSink = std::function<void(const BfgsState&)>;

}  // namespace slim::opt
