// Tests for the parameter transforms and the BFGS minimizer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "opt/bfgs.hpp"
#include "opt/transforms.hpp"

namespace slim::opt {
namespace {

// ---------- scalar transforms ----------

TEST(Transforms, IdentityRoundTrip) {
  const auto t = Transform::identity();
  EXPECT_DOUBLE_EQ(t.toExternal(3.5), 3.5);
  EXPECT_DOUBLE_EQ(t.toInternal(-2.0), -2.0);
}

TEST(Transforms, LogAboveRoundTrip) {
  const auto t = Transform::logAbove(1.0);
  for (double x : {1.0001, 1.5, 2.0, 10.0, 1e4}) {
    EXPECT_NEAR(t.toExternal(t.toInternal(x)), x, 1e-9 * x);
    EXPECT_GT(t.toExternal(t.toInternal(x)), 1.0);
  }
}

TEST(Transforms, LogAboveMapsAllOfR) {
  const auto t = Transform::logAbove(0.0);
  EXPECT_GT(t.toExternal(-100.0), 0.0);
  EXPECT_TRUE(std::isfinite(t.toExternal(50.0)));
}

TEST(Transforms, LogisticRoundTrip) {
  const auto t = Transform::logistic(0.0, 1.0);
  for (double x : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(t.toExternal(t.toInternal(x)), x, 1e-12);
  }
}

TEST(Transforms, LogisticStaysInRange) {
  const auto t = Transform::logistic(2.0, 5.0);
  for (double u : {-100.0, -1.0, 0.0, 1.0, 100.0}) {
    const double x = t.toExternal(u);
    EXPECT_GT(x, 2.0 - 1e-12);
    EXPECT_LT(x, 5.0 + 1e-12);
  }
}

TEST(Transforms, LogisticBoundaryInputClamped) {
  const auto t = Transform::logistic(0.0, 1.0);
  EXPECT_TRUE(std::isfinite(t.toInternal(0.0)));
  EXPECT_TRUE(std::isfinite(t.toInternal(1.0)));
}

// A parameter sitting exactly on a box bound — p1 = 0 from a degenerate
// start, a branch length at the clamp in a checkpoint — must map to a
// finite internal coordinate whose round trip lands strictly inside the
// open domain, or a resumed BFGS step starts from ±inf/NaN and every later
// iterate is poisoned.  Same for values knocked *past* a bound and for
// non-finite input (std::max/std::clamp propagate NaN).
TEST(Transforms, InverseClampsIntoOpenIntervalAtBothBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  // PAML's branch-length box (0, 50].
  const auto branch = Transform::logistic(0.0, 50.0);
  for (double x : {0.0, -1e-9, -5.0, 50.0, 50.0 + 1e-9, 1e9, inf, -inf, nan}) {
    const double u = branch.toInternal(x);
    EXPECT_TRUE(std::isfinite(u)) << "x=" << x;
    const double back = branch.toExternal(u);
    EXPECT_GT(back, 0.0) << "x=" << x;
    EXPECT_LT(back, 50.0) << "x=" << x;
    EXPECT_TRUE(std::isfinite(branch.derivative(u))) << "x=" << x;
  }

  // kappa > 0 and omega2 > 1 (log transforms); inf would otherwise map to
  // an inf internal coordinate.
  for (const auto t : {Transform::logAbove(0.0), Transform::logAbove(1.0)}) {
    for (double offset : {0.0, -1.0, inf, -inf, nan}) {
      const double u = t.toInternal(offset);
      EXPECT_TRUE(std::isfinite(u)) << "offset=" << offset;
      EXPECT_TRUE(std::isfinite(t.toExternal(u))) << "offset=" << offset;
    }
  }
}

TEST(Simplex2, InverseClampsDegenerateAndNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // On the simplex boundary (p1 = 0, p0 + p1 = 1) and beyond it.
  for (auto [p0, p1] : {std::pair{0.9, 0.0}, {0.0, 0.9}, {0.0, 0.0},
                        {0.5, 0.5}, {1.0, 0.0}, {1.5, -0.5}, {inf, 0.3},
                        {nan, nan}}) {
    const auto [u, v] = simplex2ToInternal(p0, p1);
    EXPECT_TRUE(std::isfinite(u)) << p0 << "," << p1;
    EXPECT_TRUE(std::isfinite(v)) << p0 << "," << p1;
    const auto [q0, q1] = simplex2ToExternal(u, v);
    EXPECT_GT(q0, 0.0);
    EXPECT_GT(q1, 0.0);
    EXPECT_LT(q0 + q1, 1.0);
  }
  // Well-inside values still round-trip tightly after the audit.
  const auto [u, v] = simplex2ToInternal(0.45, 0.45);
  const auto [q0, q1] = simplex2ToExternal(u, v);
  EXPECT_NEAR(q0, 0.45, 1e-12);
  EXPECT_NEAR(q1, 0.45, 1e-12);
}

// ---------- simplex transform ----------

TEST(Simplex2, RoundTrip) {
  for (auto [p0, p1] : {std::pair{0.5, 0.3}, {0.1, 0.8}, {0.85, 0.1},
                        {0.333, 0.333}}) {
    const auto [u, v] = simplex2ToInternal(p0, p1);
    const auto [q0, q1] = simplex2ToExternal(u, v);
    EXPECT_NEAR(q0, p0, 1e-10);
    EXPECT_NEAR(q1, p1, 1e-10);
  }
}

TEST(Simplex2, AlwaysInsideSimplex) {
  for (double u : {-50.0, -1.0, 0.0, 3.0, 50.0})
    for (double v : {-50.0, 0.0, 50.0}) {
      const auto [p0, p1] = simplex2ToExternal(u, v);
      EXPECT_GT(p0, 0.0);
      EXPECT_GT(p1, 0.0);
      EXPECT_LT(p0 + p1, 1.0 + 1e-15);
    }
}

TEST(Simplex2, OverflowSafeForExtremeInputs) {
  const auto [p0, p1] = simplex2ToExternal(800.0, -800.0);
  EXPECT_TRUE(std::isfinite(p0));
  EXPECT_NEAR(p0, 1.0, 1e-10);
  EXPECT_NEAR(p1, 0.0, 1e-10);
}

// ---------- finite-difference gradients ----------

TEST(FdGradient, MatchesAnalyticOnQuadratic) {
  const Objective f = [](std::span<const double> x) {
    return 3.0 * x[0] * x[0] + 2.0 * x[0] * x[1] + x[1] * x[1];
  };
  const std::vector<double> x{1.0, -2.0};
  std::vector<double> g(2);
  long evals = 0;
  fdGradient(f, x, f(x), 1e-7, /*central=*/false, g, evals);
  EXPECT_NEAR(g[0], 6.0 * x[0] + 2.0 * x[1], 1e-5);
  EXPECT_NEAR(g[1], 2.0 * x[0] + 2.0 * x[1], 1e-5);
  EXPECT_EQ(evals, 2);
}

TEST(FdGradient, CentralIsMoreAccurate) {
  const Objective f = [](std::span<const double> x) {
    return std::sin(x[0]);
  };
  const std::vector<double> x{1.3};
  std::vector<double> gf(1), gc(1);
  long evals = 0;
  fdGradient(f, x, f(x), 1e-6, false, gf, evals);
  fdGradient(f, x, f(x), 1e-6, true, gc, evals);
  const double exact = std::cos(1.3);
  EXPECT_LT(std::fabs(gc[0] - exact), std::fabs(gf[0] - exact) + 1e-12);
  EXPECT_EQ(evals, 1 + 2);
}

// ---------- BFGS ----------

TEST(Bfgs, SolvesConvexQuadratic) {
  const Objective f = [](std::span<const double> x) {
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += (i + 1.0) * (x[i] - 1.0) * (x[i] - 1.0);
    return s;
  };
  const std::vector<double> x0{5.0, -3.0, 0.0, 2.0};
  const auto r = minimizeBfgs(f, x0);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.value, 1e-10);
  for (double xi : r.x) EXPECT_NEAR(xi, 1.0, 1e-4);
}

TEST(Bfgs, SolvesRosenbrock) {
  const Objective f = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  BfgsOptions opts;
  opts.maxIterations = 2000;
  opts.centralDifferences = true;
  const auto r = minimizeBfgs(f, std::vector<double>{-1.2, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(Bfgs, ConcurrentDriversMatchSerial) {
  // The reentrancy contract core::TaskScheduler leans on: independent
  // drivers running in parallel (each with its own objective state) land on
  // exactly the serial trajectory.
  const auto makeObjective = [](double target) {
    return Objective([target](std::span<const double> x) {
      const double a = target - x[0];
      const double b = x[1] - x[0] * x[0];
      return a * a + 100.0 * b * b;
    });
  };
  BfgsOptions opts;
  opts.maxIterations = 200;

  constexpr int kDrivers = 8;
  std::vector<BfgsResult> serial(kDrivers), parallel(kDrivers);
  for (int d = 0; d < kDrivers; ++d)
    serial[d] =
        minimizeBfgs(makeObjective(1.0 + d), std::vector<double>{-1.2, 1.0}, opts);

  std::vector<std::thread> threads;
  for (int d = 0; d < kDrivers; ++d)
    threads.emplace_back([&, d] {
      parallel[d] = minimizeBfgs(makeObjective(1.0 + d),
                                 std::vector<double>{-1.2, 1.0}, opts);
    });
  for (auto& t : threads) t.join();

  for (int d = 0; d < kDrivers; ++d) {
    EXPECT_EQ(parallel[d].value, serial[d].value) << d;
    EXPECT_EQ(parallel[d].x, serial[d].x) << d;
    EXPECT_EQ(parallel[d].iterations, serial[d].iterations) << d;
    EXPECT_EQ(parallel[d].functionEvaluations, serial[d].functionEvaluations)
        << d;
  }
}

TEST(Bfgs, HandlesInfeasibleRegions) {
  // +inf outside the unit disk; optimum at an interior point.
  const Objective f = [](std::span<const double> x) -> double {
    const double r2 = x[0] * x[0] + x[1] * x[1];
    if (r2 > 1.0) return std::numeric_limits<double>::infinity();
    return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] + 0.2) * (x[1] + 0.2);
  };
  const auto r = minimizeBfgs(f, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(r.x[0], 0.3, 1e-4);
  EXPECT_NEAR(r.x[1], -0.2, 1e-4);
}

TEST(Bfgs, RespectsIterationCap) {
  const Objective f = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  BfgsOptions opts;
  opts.maxIterations = 3;
  const auto r = minimizeBfgs(f, std::vector<double>{-1.2, 1.0}, opts);
  EXPECT_LE(r.iterations, 3);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.message, "maximum iterations reached");
}

TEST(Bfgs, AlreadyAtOptimum) {
  const Objective f = [](std::span<const double> x) { return x[0] * x[0]; };
  const auto r = minimizeBfgs(f, std::vector<double>{0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Bfgs, ThrowsOnInfeasibleStart) {
  const Objective f = [](std::span<const double>) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_THROW(minimizeBfgs(f, std::vector<double>{0.0}),
               std::invalid_argument);
}

// An objective that returns NaN beyond a bound (how the likelihood behaves
// when a trial point walks a parameter off its domain).  Only the *initial*
// point aborts; NaN line-search trials are failed steps that backtrack —
// the same contract as Nelder-Mead's sanitize-to-infinity.
TEST(Bfgs, SurvivesNaNTrialPointsOffABound) {
  const Objective f = [](std::span<const double> x) -> double {
    if (x[0] > 1.0) return std::numeric_limits<double>::quiet_NaN();
    return (x[0] - 3.0) * (x[0] - 3.0);
  };
  // From 0.5 the descent direction points at the minimum at 3.0, so full
  // steps repeatedly land in the NaN region and must backtrack.
  const auto r = minimizeBfgs(f, std::vector<double>{0.5});
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_LE(r.x[0], 1.0);
  EXPECT_LT(r.value, (0.5 - 3.0) * (0.5 - 3.0));  // made real progress
}

// When a *gradient probe* hits the NaN region (start pinned to the bound so
// the forward-difference step crosses it), BFGS must neither abort nor
// report convergence off a poisoned gradient: it stops cleanly at the last
// accepted point with a finite value.
TEST(Bfgs, NaNGradientProbeStopsCleanly) {
  const Objective f = [](std::span<const double> x) -> double {
    if (x[0] > 1.0) return std::numeric_limits<double>::quiet_NaN();
    return (x[0] - 3.0) * (x[0] - 3.0);
  };
  const auto r = minimizeBfgs(f, std::vector<double>{1.0});
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);  // start returned unchanged
  EXPECT_FALSE(r.converged);
  EXPECT_NE(r.message.find("gradient not finite"), std::string::npos)
      << r.message;
}

TEST(Bfgs, QuarticValleyConverges) {
  const Objective f = [](std::span<const double> x) {
    return std::pow(x[0] - 2.0, 4) + x[1] * x[1];
  };
  BfgsOptions opts;
  opts.maxIterations = 200;
  const auto r = minimizeBfgs(f, std::vector<double>{5.0, 5.0}, opts);
  EXPECT_LT(r.value, 1e-3);
  EXPECT_NEAR(r.x[1], 0.0, 1e-3);
  EXPECT_GT(r.functionEvaluations, r.iterations);
}

}  // namespace
}  // namespace slim::opt
