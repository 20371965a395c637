#include "linalg/blas1.hpp"

#include "support/require.hpp"

namespace slim::linalg {

double dot(std::span<const double> x, std::span<const double> y) {
  SLIM_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

}  // namespace slim::linalg
