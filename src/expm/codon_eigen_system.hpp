#pragma once
// The SlimCodeML matrix-exponential pipeline (paper Sec. II-C1 / III-A).
//
// Given a symmetric exchangeability S and codon frequencies pi, the
// instantaneous rate matrix is Q = S Pi.  Steps:
//
//   1.  A := Pi^{1/2} S Pi^{1/2}                      (O(n^2), Eq. 2)
//   2.  A  = X Lambda X^T (symmetric eigenproblem)    (O(n^3), once per omega)
//   then, per branch length t:
//   3.  Y := X e^{Lambda t/2}                         (O(n^2), Eq. 11)
//   4.  Z := Y Y^T      [SyrkPath, Eq. 10, ~n^3]      — or —
//       Z := (X e^{Lambda t}) X^T [GemmPath, Eq. 9, ~2n^3]
//   5.  P(t) := Pi^{-1/2} Z Pi^{1/2}                  (O(n^2), Eq. 5)
//
// Steps 4 and 5 run as one fused entry of the caller's kernel table
// (linalg/simd.hpp): syrkSandwich for Eq. 10, gemmNTSandwich for Eq. 9.
//
// The kernel stores the result in the layout its caller reads
// (linalg::OutputLayout; the store is the only thing that moves, so both
// layouts hold the same bits).  Plain P is the default: the per-site
// (PerSiteGemv) sweeps, the simulator and the benchmarks read P.  The
// likelihood evaluator's BundledGemm tables ask for P^T, which its panel
// products W P^T read, and its gradient asks for (dP/dt)^T under both
// propagation strategies.

#include <span>
#include <vector>

#include "eigenx/sym_eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace slim::expm {

/// How P(t) is reconstructed from the eigendecomposition.
enum class ReconstructionPath {
  Gemm,  ///< Eq. 9: Z = (X e^{Lambda t}) X^T, general product, ~2n^3 flops.
  Syrk,  ///< Eq. 10: Z = Y Y^T with Y = X e^{Lambda t/2}, ~n^3 flops.
};

constexpr const char* reconstructionPathName(ReconstructionPath p) noexcept {
  return p == ReconstructionPath::Gemm ? "gemm(Eq.9)" : "syrk(Eq.10)";
}

/// Scratch buffers reused across transitionMatrix calls so the per-branch
/// hot loop performs no allocation.
struct ExpmWorkspace {
  linalg::Matrix y;        // X e^{Lambda t} or X e^{Lambda t/2}
  linalg::Vector expDiag;  // e^{lambda_i t} or e^{lambda_i t/2}
};

class CodonEigenSystem {
 public:
  /// Symmetrize and eigendecompose (steps 1-2).  `s` must be symmetric with
  /// zero diagonal (an exchangeability matrix, possibly pre-scaled); `pi`
  /// strictly positive summing to 1.
  CodonEigenSystem(const linalg::Matrix& s, std::span<const double> pi);
  /// An empty system (n() == 0), to be assigned a decomposed one.
  CodonEigenSystem() = default;

  std::size_t n() const noexcept { return eig_.vectors.rows(); }
  const linalg::Vector& eigenvalues() const noexcept { return eig_.values; }
  const linalg::Matrix& eigenvectors() const noexcept { return eig_.vectors; }
  std::span<const double> pi() const noexcept { return pi_; }
  std::span<const double> sqrtPi() const noexcept { return sqrtPi_; }
  std::span<const double> invSqrtPi() const noexcept { return invSqrtPi_; }

  /// Steps 3-5: fill p with P(t) = e^{Qt} through the kernel table, the
  /// Pi^{-1/2}/Pi^{1/2} sandwich and the roundoff clamp (tiny negative
  /// entries set to 0, the same policy on every path and table) fused into
  /// the reconstruction product.  `layout` Transposed stores P^T.
  void transitionMatrix(
      double t, ReconstructionPath path, const linalg::SimdKernels& kern,
      ExpmWorkspace& ws, linalg::Matrix& p,
      linalg::OutputLayout layout = linalg::OutputLayout::Plain) const;

  /// Fill dp with dP(t)/dt = Q e^{Qt}, the branch-length derivative of the
  /// propagator, via the same eigendecomposition:
  ///   dP/dt = Pi^{-1/2} X (Lambda e^{Lambda t}) X^T Pi^{1/2},
  /// i.e. the Eq. 9 reconstruction with the exponentials scaled by their
  /// eigenvalues, sandwich fused.  No roundoff clamping: unlike P, dP
  /// legitimately carries negative entries.  One O(n^3) product per (omega
  /// class, branch length) — what makes a full analytic branch gradient
  /// cost a constant number of pruning-sweep equivalents instead of one
  /// likelihood evaluation per branch.  `layout` Transposed stores
  /// (dP/dt)^T.
  void derivativeMatrix(
      double t, const linalg::SimdKernels& kern, ExpmWorkspace& ws,
      linalg::Matrix& dp,
      linalg::OutputLayout layout = linalg::OutputLayout::Plain) const;

 private:
  std::vector<double> pi_, sqrtPi_, invSqrtPi_;
  eigenx::SymEigenResult eig_;
};

}  // namespace slim::expm
