#include "expm/codon_eigen_system.hpp"

#include <cmath>

#include "linalg/diag.hpp"
#include "support/require.hpp"

namespace slim::expm {

using linalg::Matrix;

CodonEigenSystem::CodonEigenSystem(const Matrix& s, std::span<const double> pi) {
  const std::size_t n = s.rows();
  SLIM_REQUIRE(s.square() && n > 0, "exchangeability matrix must be square");
  SLIM_REQUIRE(pi.size() == n, "pi has wrong length");

  pi_.assign(pi.begin(), pi.end());
  sqrtPi_.resize(n);
  invSqrtPi_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    SLIM_REQUIRE(pi_[i] > 0, "pi must be strictly positive (Eq. 2 requires Pi^{1/2})");
    sqrtPi_[i] = std::sqrt(pi_[i]);
    invSqrtPi_[i] = 1.0 / sqrtPi_[i];
  }

  // Step 1 (Eq. 2): A = Pi^{1/2} S Pi^{1/2}, where the diagonal of S is
  // fixed up from the generator constraint (rows of Q = S Pi sum to zero):
  //   s_ii = -(sum_{j != i} s_ij pi_j) / pi_i
  //   => a_ii = pi_i s_ii = -sum_{j != i} s_ij pi_j.
  // Any diagonal present in the input s is ignored.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double rowRate = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = sqrtPi_[i] * s(i, j) * sqrtPi_[j];
      rowRate += s(i, j) * pi_[j];
    }
    a(i, i) = -rowRate;
  }

  // Step 2: symmetric eigendecomposition (the well-conditioned problem).
  eig_ = eigenx::symEigen(a);

  // A is similar to the generator Q, whose spectrum is non-positive; any
  // positive eigenvalue is pure roundoff (~1e-14) and is clamped so that
  // exp(lambda * t) can never diverge for large branch lengths.
  for (std::size_t i = 0; i < n; ++i)
    if (eig_.values[i] > 0.0) eig_.values[i] = 0.0;
}

void CodonEigenSystem::transitionMatrix(double t, ReconstructionPath path,
                                        const linalg::SimdKernels& kern,
                                        ExpmWorkspace& ws, Matrix& p,
                                        linalg::OutputLayout layout) const {
  const std::size_t nn = n();
  SLIM_REQUIRE(t >= 0, "branch length must be non-negative");
  SLIM_REQUIRE(p.rows() == nn && p.square(), "output shape mismatch");
  if (ws.y.rows() != nn) ws.y.resize(nn, nn);
  if (ws.expDiag.size() != nn) ws.expDiag.assign(nn, 0.0);

  if (path == ReconstructionPath::Syrk) {
    // Step 3: Y = X e^{Lambda t/2}; steps 4-5 (Eq. 10, ~n^3 flops) fused:
    // P = Pi^{-1/2} (Y Y^T) Pi^{1/2} straight out of the rank-update loop,
    // clamp included.
    for (std::size_t i = 0; i < nn; ++i)
      ws.expDiag[i] = std::exp(0.5 * eig_.values[i] * t);
    linalg::scaleCols(eig_.vectors, ws.expDiag.span(), ws.y);
    kern.syrkSandwich(ws.y.data(), invSqrtPi_.data(), sqrtPi_.data(), p.data(),
                      nn, nn, layout);
  } else {
    // Eq. 9: Z = (X e^{Lambda t}) X^T, general product (~2n^3 flops), with
    // step 5 and the clamp fused.
    for (std::size_t i = 0; i < nn; ++i)
      ws.expDiag[i] = std::exp(eig_.values[i] * t);
    linalg::scaleCols(eig_.vectors, ws.expDiag.span(), ws.y);
    kern.gemmNTSandwich(ws.y.data(), eig_.vectors.data(), invSqrtPi_.data(),
                        sqrtPi_.data(), p.data(), nn, nn, nn,
                        /*clampNegative=*/true, layout);
  }
}

void CodonEigenSystem::derivativeMatrix(double t,
                                        const linalg::SimdKernels& kern,
                                        ExpmWorkspace& ws, Matrix& dp,
                                        linalg::OutputLayout layout) const {
  const std::size_t nn = n();
  SLIM_REQUIRE(t >= 0, "branch length must be non-negative");
  SLIM_REQUIRE(dp.rows() == nn && dp.square(), "output shape mismatch");
  if (ws.y.rows() != nn) ws.y.resize(nn, nn);
  if (ws.expDiag.size() != nn) ws.expDiag.assign(nn, 0.0);

  for (std::size_t i = 0; i < nn; ++i)
    ws.expDiag[i] = eig_.values[i] * std::exp(eig_.values[i] * t);
  linalg::scaleCols(eig_.vectors, ws.expDiag.span(), ws.y);
  kern.gemmNTSandwich(ws.y.data(), eig_.vectors.data(), invSqrtPi_.data(),
                      sqrtPi_.data(), dp.data(), nn, nn, nn,
                      /*clampNegative=*/false, layout);
}

}  // namespace slim::expm
