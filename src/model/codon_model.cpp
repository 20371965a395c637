#include "model/codon_model.hpp"

#include <cmath>

#include "support/require.hpp"

namespace slim::model {

using bio::GeneticCode;
using linalg::Matrix;

void buildExchangeability(const GeneticCode& gc, double kappa, double omega,
                          Matrix& s) {
  SLIM_REQUIRE(kappa > 0, "kappa must be positive");
  SLIM_REQUIRE(omega >= 0, "omega must be non-negative");
  const int n = gc.numSense();
  SLIM_REQUIRE(s.rows() == static_cast<std::size_t>(n) && s.square(),
               "exchangeability matrix has wrong shape");
  s.fill(0.0);
  for (const bio::SingleChangePair& pair : gc.singleChangePairs()) {
    double v = 1.0;
    if (pair.transition) v *= kappa;
    if (!pair.synonymous) v *= omega;
    s(pair.i, pair.j) = v;
    s(pair.j, pair.i) = v;
  }
}

double buildRateMatrix(const Matrix& s, std::span<const double> pi, Matrix& q) {
  const std::size_t n = s.rows();
  SLIM_REQUIRE(s.square() && pi.size() == n, "rate matrix: size mismatch");
  SLIM_REQUIRE(q.rows() == n && q.square(), "rate matrix: output shape");
  double mu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = s(i, j) * pi[j];
      q(i, j) = v;
      rowSum += v;
    }
    q(i, i) = -rowSum;
    mu += pi[i] * rowSum;
  }
  return mu;
}

double expectedRate(const Matrix& q, std::span<const double> pi) {
  SLIM_REQUIRE(q.square() && pi.size() == q.rows(), "expectedRate: shape");
  double mu = 0.0;
  for (std::size_t i = 0; i < q.rows(); ++i) mu -= pi[i] * q(i, i);
  return mu;
}

void scaleRateMatrix(Matrix& q, double factor) {
  SLIM_REQUIRE(factor > 0, "scale factor must be positive");
  for (std::size_t k = 0; k < q.size(); ++k) q.data()[k] /= factor;
}

void validateGenerator(const Matrix& q, std::span<const double> pi,
                       double tol) {
  const std::size_t n = q.rows();
  SLIM_REQUIRE(q.square() && pi.size() == n, "validateGenerator: shape");
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j)
        SLIM_REQUIRE(q(i, j) >= 0.0, "negative off-diagonal rate");
      rowSum += q(i, j);
    }
    SLIM_REQUIRE(std::fabs(rowSum) < tol, "generator row does not sum to 0");
    for (std::size_t j = i + 1; j < n; ++j)
      SLIM_REQUIRE(std::fabs(pi[i] * q(i, j) - pi[j] * q(j, i)) < tol,
                   "detailed balance violated");
  }
}

}  // namespace slim::model
