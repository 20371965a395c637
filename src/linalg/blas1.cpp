#include "linalg/blas1.hpp"

#include "support/require.hpp"

namespace slim::linalg {

double dot(std::span<const double> x, std::span<const double> y) {
  SLIM_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void copy(std::span<const double> x, std::span<double> y) {
  SLIM_REQUIRE(x.size() == y.size(), "copy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i];
}

void hadamardInPlace(std::span<const double> x, std::span<double> y) {
  SLIM_REQUIRE(x.size() == y.size(), "hadamard: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] *= x[i];
}

}  // namespace slim::linalg
