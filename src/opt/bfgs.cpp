#include "opt/bfgs.hpp"

#include <cmath>
#include <limits>

#include "support/require.hpp"

namespace slim::opt {

namespace {

double infNorm(std::span<const double> v) noexcept {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

bool allFinite(std::span<const double> v) noexcept {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

BfgsResult minimizeBfgs(ObjectiveFunction& f, std::span<const double> x0,
                        const BfgsOptions& options,
                        const BfgsCheckpointSink& sink,
                        const BfgsState* source) {
  const std::size_t n = x0.size();
  SLIM_REQUIRE(n > 0, "BFGS: empty parameter vector");

  BfgsResult res;
  std::vector<double> hInv(n * n, 0.0);
  std::vector<double> grad(n), gradNew(n), dir(n), xNew(n), s(n), y(n), hy(n);

  // Gradients always come from the objective, which reports how many extra
  // evaluations (FD probes) it spent; passing the known f(x) spares it the
  // value re-evaluation.
  const auto gradientAt = [&](std::span<const double> x, double fx,
                              std::span<double> g) {
    const GradientResult gr = f.valueAndGradient(
        x, g, {options.fdStep, options.centralDifferences, fx});
    res.gradientEvaluations += gr.functionEvaluations;
    res.gradientSweeps += gr.gradientSweeps;
    res.analyticCoordinates = gr.analyticCoordinates;
  };

  // Cancellation is polled only at iteration boundaries — exactly the points
  // where checkpoint snapshots are taken — so a cancelled fit stops at a
  // state a resume can continue bit-identically.
  const auto cancelRequested = [&] {
    return options.cancel && options.cancel();
  };
  const auto stopCancelled = [&]() -> BfgsResult& {
    res.cancelled = true;
    res.message = "cancelled";
    return res;
  };

  int slowProgress = 0;
  int startIteration = 0;

  if (source != nullptr) {
    // Resume: restore the full driver state.  Hex-float serialization above
    // this layer round-trips every double exactly, so the continued run
    // repeats the uninterrupted trajectory bit for bit.
    SLIM_REQUIRE(source->x.size() == n && source->grad.size() == n &&
                     source->hInv.size() == n * n,
                 "BFGS: checkpoint state dimensions do not match the problem");
    // Every restored number must be finite — the text format legitimately
    // round-trips nan/inf, and a NaN gradient or Hessian entry would make
    // the first search direction NaN and end the fit at the checkpoint's
    // point while looking like a clean "stationary" stop.
    SLIM_REQUIRE(allFinite(source->x) && std::isfinite(source->value) &&
                     allFinite(source->grad) && allFinite(source->hInv),
                 "BFGS: checkpoint state is not finite");
    res.x = source->x;
    res.value = source->value;
    grad = source->grad;
    hInv = source->hInv;
    res.functionEvaluations = source->functionEvaluations;
    res.gradientEvaluations = source->gradientEvaluations;
    res.gradientSweeps = source->gradientSweeps;
    res.analyticCoordinates = source->analyticCoordinates;
    slowProgress = source->slowProgress;
    startIteration = source->iterations;
  } else {
    res.x.assign(x0.begin(), x0.end());
    res.value = f.value(res.x);
    ++res.functionEvaluations;
    // The *initial* point must be feasible.  Everywhere past this line a non-finite value is survivable: NaN/inf
    // line-search trials are failed steps that backtrack, and a non-finite
    // gradient (an FD probe stepping off a bound into NaN territory) ends the
    // optimization cleanly at the last accepted point instead of corrupting
    // the Hessian or spuriously reporting convergence.
    SLIM_REQUIRE(std::isfinite(res.value),
                 "BFGS: objective not finite at the starting point");

    // Inverse Hessian approximation, initialized to the identity.
    for (std::size_t i = 0; i < n; ++i) hInv[i * n + i] = 1.0;

    // An already-cancelled fit (e.g. SIGTERM landed during an earlier gene)
    // pays one evaluation so the result still carries a meaningful value,
    // then stops before the comparatively expensive first gradient.
    if (cancelRequested()) return stopCancelled();

    gradientAt(res.x, res.value, grad);
    if (!allFinite(grad)) {
      res.message = "gradient not finite at the starting point";
      return res;
    }
  }

  const auto snapshot = [&](int completedIterations) {
    if (!sink) return;
    BfgsState st;
    st.x = res.x;
    st.value = res.value;
    st.grad = grad;
    st.hInv = hInv;
    st.iterations = completedIterations;
    st.functionEvaluations = res.functionEvaluations;
    st.gradientEvaluations = res.gradientEvaluations;
    st.gradientSweeps = res.gradientSweeps;
    st.analyticCoordinates = res.analyticCoordinates;
    st.slowProgress = slowProgress;
    sink(st);
  };
  if (source == nullptr) snapshot(0);

  for (res.iterations = startIteration; res.iterations < options.maxIterations;
       ++res.iterations) {
    if (cancelRequested()) return stopCancelled();
    if (infNorm(grad) < options.gradTolerance * (1.0 + std::fabs(res.value))) {
      res.converged = true;
      res.message = "gradient tolerance reached";
      return res;
    }

    // Search direction d = -H g.
    for (std::size_t i = 0; i < n; ++i) {
      double t = 0.0;
      for (std::size_t j = 0; j < n; ++j) t += hInv[i * n + j] * grad[j];
      dir[i] = -t;
    }
    // Guard: if H lost descent property, reset to steepest descent.
    double gTd = 0.0;
    for (std::size_t i = 0; i < n; ++i) gTd += grad[i] * dir[i];
    if (!(gTd < 0.0)) {
      for (std::size_t i = 0; i < n; ++i) dir[i] = -grad[i];
      gTd = 0.0;
      for (std::size_t i = 0; i < n; ++i) gTd += grad[i] * dir[i];
      for (std::size_t i = 0; i < n * n; ++i) hInv[i] = 0.0;
      for (std::size_t i = 0; i < n; ++i) hInv[i * n + i] = 1.0;
    }

    // Armijo backtracking.
    double step = 1.0;
    double fNew = std::numeric_limits<double>::infinity();
    bool accepted = false;
    for (int ls = 0; ls < options.maxLineSearchSteps; ++ls) {
      for (std::size_t i = 0; i < n; ++i) xNew[i] = res.x[i] + step * dir[i];
      fNew = f.value(xNew);
      ++res.functionEvaluations;
      if (std::isfinite(fNew) &&
          fNew <= res.value + options.armijoC1 * step * gTd) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) {
      res.message = "line search failed (stationary within precision)";
      res.converged = infNorm(grad) <
                      1e-3 * (1.0 + std::fabs(res.value));
      return res;
    }

    gradientAt(xNew, fNew, gradNew);
    if (!allFinite(gradNew)) {
      // Keep the accepted step — it genuinely improved the objective — but
      // stop here: a NaN gradient would poison the BFGS update and every
      // later iterate.
      res.x = xNew;
      res.value = fNew;
      ++res.iterations;
      res.message = "stopped: gradient not finite (objective NaN at a probe)";
      return res;
    }

    // BFGS inverse update with curvature safeguard.
    double sy = 0.0, ss = 0.0, yy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = xNew[i] - res.x[i];
      y[i] = gradNew[i] - grad[i];
      sy += s[i] * y[i];
      ss += s[i] * s[i];
      yy += y[i] * y[i];
    }
    if (sy > 1e-12 * std::sqrt(ss * yy)) {
      const double rho = 1.0 / sy;
      // H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
      for (std::size_t i = 0; i < n; ++i) {
        double t = 0.0;
        for (std::size_t j = 0; j < n; ++j) t += hInv[i * n + j] * y[j];
        hy[i] = t;  // (H y)_i
      }
      double yHy = 0.0;
      for (std::size_t i = 0; i < n; ++i) yHy += y[i] * hy[i];
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          hInv[i * n + j] += rho * ((1.0 + rho * yHy) * s[i] * s[j] -
                                    hy[i] * s[j] - s[i] * hy[j]);
    }

    const double improvement = res.value - fNew;
    res.x = xNew;
    res.value = fNew;
    grad = gradNew;

    if (improvement < options.fTolerance * (1.0 + std::fabs(res.value))) {
      if (++slowProgress >= 2) {
        res.converged = true;
        res.message = "function tolerance reached";
        ++res.iterations;
        return res;
      }
    } else {
      slowProgress = 0;
    }

    snapshot(res.iterations + 1);
  }
  res.message = "maximum iterations reached";
  return res;
}

BfgsResult minimizeBfgs(const Objective& f, std::span<const double> x0,
                        const BfgsOptions& options) {
  CallableObjective obj(f);
  return minimizeBfgs(obj, x0, options);
}

}  // namespace slim::opt
