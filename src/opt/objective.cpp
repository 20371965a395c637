#include "opt/objective.hpp"

#include <cmath>

#include "support/require.hpp"

namespace slim::opt {

GradientResult ObjectiveFunction::valueAndGradient(
    std::span<const double> x, std::span<double> grad,
    const GradientOptions& options) {
  GradientResult result;
  if (std::isnan(options.knownValue)) {
    result.value = value(x);
    ++result.functionEvaluations;
  } else {
    result.value = options.knownValue;
  }
  fdGradient(*this, x, result.value, options.relStep, options.central, grad,
             result.functionEvaluations);
  return result;
}

void fdGradient(ObjectiveFunction& f, std::span<const double> x, double f0,
                double relStep, bool central, std::span<double> grad,
                long& evals) {
  const std::size_t n = grad.size();
  SLIM_REQUIRE(n <= x.size(), "gradient size mismatch");

  std::vector<double> probe(x.begin(), x.end());
  for (std::size_t i = 0; i < n; ++i) {
    const double h = relStep * std::max(std::fabs(x[i]), 1.0);
    probe[i] = x[i] + h;
    const double fPlus = f.value(probe);
    if (central) {
      probe[i] = x[i] - h;
      grad[i] = (fPlus - f.value(probe)) / (2.0 * h);
    } else {
      grad[i] = (fPlus - f0) / h;
    }
    probe[i] = x[i];
  }
  evals += static_cast<long>(central ? 2 * n : n);
}

void fdGradient(const Objective& f, std::span<const double> x, double f0,
                double relStep, bool central, std::span<double> grad,
                long& evals) {
  CallableObjective obj(f);
  fdGradient(obj, x, f0, relStep, central, grad, evals);
}

}  // namespace slim::opt
