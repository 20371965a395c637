#pragma once
// Quasi-Newton minimization.
//
// "The maximization of the likelihood of the BSM is achieved through
// iterative maximization algorithms such as Newton-Raphson methods or an
// approximation like the BFGS method" (paper Sec. II-B).  Both engines share
// this optimizer so that iteration counts are comparable; remaining
// iteration-count differences between engines come from floating-point
// reassociation in the kernels, the same sensitivity the paper reports for
// CodeML under different RNG seeds (Sec. IV).
//
// The driver consumes the derivative-aware opt::ObjectiveFunction contract
// (opt/objective.hpp): gradients come from the objective's valueAndGradient
// — analytic where the objective provides them, finite differences over
// value() otherwise.
// Legacy std::function objectives run through the CallableObjective shim via
// the convenience overload.
//
// Reentrancy: the driver keeps all state (iterate, inverse Hessian, line
// search, gradient scratch) in locals — no globals, no statics — so
// concurrent minimizeBfgs calls are safe whenever each call's objective
// touches disjoint state.  core::TaskScheduler relies on this to fan
// independent fits (H0/H1 pairs, multi-gene batches) across threads, each
// with its own evaluator.  Verified by opt_test's ConcurrentDriversMatchSerial
// and CI's TSan job.

#include <span>
#include <string>
#include <vector>

#include "opt/cancel.hpp"
#include "opt/checkpoint.hpp"
#include "opt/objective.hpp"

namespace slim::opt {

struct BfgsOptions {
  int maxIterations = 500;
  /// Converged when ||grad||_inf < gradTolerance * (1 + |f|).
  double gradTolerance = 1e-6;
  /// Converged when the improvement over an iteration is below
  /// fTolerance * (1 + |f|) twice in a row.
  double fTolerance = 1e-9;
  /// Relative finite-difference step (per-coordinate step is
  /// fdStep * max(|x_i|, 1)).
  double fdStep = 1e-7;
  bool centralDifferences = false;
  int maxLineSearchSteps = 40;
  double armijoC1 = 1e-4;
  /// Polled at iteration boundaries (the checkpoint snapshot points); when it
  /// returns true the fit stops cleanly at the last accepted point with
  /// message "cancelled".  Deliberately excluded from checkpointConfigHash:
  /// cancellation truncates a trajectory, it never alters one.
  CancelPredicate cancel;
};

struct BfgsResult {
  std::vector<double> x;     ///< Best point found.
  double value = 0;          ///< f(x).
  int iterations = 0;        ///< Outer BFGS iterations performed.
  /// Objective evaluations spent on values (start point + line searches).
  long functionEvaluations = 0;
  /// Objective evaluations spent inside gradient computations (FD probes);
  /// total work is functionEvaluations + gradientEvaluations.
  long gradientEvaluations = 0;
  /// Analytic gradient sweeps the objective performed across all gradients.
  long gradientSweeps = 0;
  /// Coordinates of the last gradient that carried analytic derivatives.
  int analyticCoordinates = 0;
  bool converged = false;
  /// True when BfgsOptions::cancel stopped the fit; `x`/`value` hold the last
  /// accepted point and `message` is "cancelled".
  bool cancelled = false;
  std::string message;
};

/// Minimize f from x0 with BFGS (dense inverse-Hessian update, Armijo
/// backtracking line search; gradients from f.valueAndGradient).
///
/// `sink`, when set, receives a resumable BfgsState after the initial
/// gradient and after every completed iteration.  `source`, when non-null,
/// restores such a state instead of evaluating at x0 (whose length only
/// fixes the dimension): the run continues the recorded trajectory
/// bit-identically, including iteration and evaluation counters.  A source
/// whose dimensions disagree with x0 throws std::invalid_argument.
BfgsResult minimizeBfgs(ObjectiveFunction& f, std::span<const double> x0,
                        const BfgsOptions& options = {},
                        const BfgsCheckpointSink& sink = {},
                        const BfgsState* source = nullptr);

/// Legacy convenience overload over a std::function objective.
BfgsResult minimizeBfgs(const Objective& f, std::span<const double> x0,
                        const BfgsOptions& options = {});

}  // namespace slim::opt
