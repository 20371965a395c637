#pragma once
// The derivative-aware objective contract between the optimizers and the
// likelihood layer.
//
// PR 2 left the optimizer boundary a scalar callback: every gradient was
// numParams + 1 independent likelihood evaluations, and the evaluator had no
// way to tell the optimizer about derivatives it can compute analytically or
// to batch independent probe points.  ObjectiveFunction makes both
// first-class:
//
//   * value(x)                 — one objective evaluation (the old contract);
//   * evaluateMany(points)     — batched multi-point evaluation.  The default
//     is a sequential value() loop; implementations may fan the points across
//     workers (core::LikelihoodObjective runs one single-threaded evaluator
//     per worker), but must return exactly the values the sequential loop
//     would — bit for bit — so batching never changes an optimization
//     trajectory;
//   * valueAndGradient(x, g)   — the gradient, reporting through
//     GradientResult *which* coordinates carried analytic derivatives and how
//     many objective evaluations / analytic sweeps the computation consumed.
//     The default implementation is finite differences routed through
//     evaluateMany, so a batching objective parallelizes FD gradients with no
//     optimizer changes.
//
// minimizeBfgs consumes this interface; legacy std::function objectives are
// adapted by CallableObjective (or the convenience overload in bfgs.hpp).

#include <functional>
#include <limits>
#include <span>
#include <vector>

namespace slim::opt {

/// Legacy scalar objective.  May return +infinity / NaN for infeasible
/// points; optimizers backtrack away from them.
using Objective = std::function<double(std::span<const double>)>;

/// How a gradient should be computed (carried from BfgsOptions; analytic
/// implementations use the FD settings for their non-analytic coordinates).
struct GradientOptions {
  /// Relative finite-difference step; the per-coordinate step is
  /// relStep * max(|x_i|, 1), so near-zero coordinates (branch lengths at
  /// the lower bound) still take a well-scaled step.
  double relStep = 1e-7;
  bool central = false;
  /// f(x) when the caller has already evaluated it (NaN otherwise); saves
  /// the re-evaluation that forward differences and analytic gradients would
  /// otherwise pay.
  double knownValue = std::numeric_limits<double>::quiet_NaN();
};

/// What a valueAndGradient call did.
struct GradientResult {
  double value = 0;  ///< f(x).
  /// Coordinates whose partial derivative was computed analytically (the
  /// remaining ones were finite-differenced).  0 for a pure-FD gradient.
  int analyticCoordinates = 0;
  /// Objective evaluations consumed (FD probes plus any re-evaluation).
  long functionEvaluations = 0;
  /// Analytic gradient sweeps performed (0 or 1).
  long gradientSweeps = 0;
};

class ObjectiveFunction {
 public:
  virtual ~ObjectiveFunction() = default;

  /// Evaluate f at x.  May return +infinity / NaN for infeasible points.
  virtual double value(std::span<const double> x) = 0;

  /// Evaluate f at every point; element i of the result is f(points[i]).
  /// Overrides may evaluate concurrently but must return values identical to
  /// the sequential value() loop.
  virtual std::vector<double> evaluateMany(
      const std::vector<std::vector<double>>& points);

  /// Fill grad with the gradient of f at x and return what was done.  The
  /// default finite-differences every coordinate through evaluateMany.
  virtual GradientResult valueAndGradient(std::span<const double> x,
                                          std::span<double> grad,
                                          const GradientOptions& options);
};

/// Adapts a legacy std::function objective onto the interface (no analytic
/// derivatives, sequential evaluateMany).  Owns a copy of the callable, so
/// adapting a temporary (e.g. a lambda converted at the call site) is safe.
class CallableObjective final : public ObjectiveFunction {
 public:
  explicit CallableObjective(Objective f) : f_(std::move(f)) {}
  double value(std::span<const double> x) override { return f_(x); }

 private:
  Objective f_;
};

/// Finite-difference gradient of f at x where f0 = f(x), with all probe
/// points routed through one evaluateMany call; evals is incremented by the
/// number of probe evaluations.  Steps are relStep * max(|x_i|, 1).
/// Differentiates the leading grad.size() coordinates (grad.size() may be
/// smaller than x.size() — how hybrid objectives finite-difference only
/// their non-analytic block with the same step rule as a full FD gradient).
void fdGradient(ObjectiveFunction& f, std::span<const double> x, double f0,
                double relStep, bool central, std::span<double> grad,
                long& evals);

/// Legacy form over a std::function objective.
void fdGradient(const Objective& f, std::span<const double> x, double f0,
                double relStep, bool central, std::span<double> grad,
                long& evals);

}  // namespace slim::opt
