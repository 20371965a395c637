#pragma once
// Symmetric eigensolvers.
//
// SlimCodeML step 2 (Sec. III-A) solves the symmetric eigenproblem
// A = X Lambda X^T once per distinct omega class with LAPACK's dsyevr.
// No LAPACK is available in this environment, so we provide the classic
// Householder-tridiagonalization + implicit-shift-QL solver (the same
// algorithm family PAML's own eigen routine uses, and the QR/QL fallback
// inside dsyevr itself), plus a cyclic Jacobi solver used as a slow,
// independently-derived oracle in tests.
//
// symEigen runs EISPACK's tred2/tql2 statements on the working matrix
// W = V^T (each v(a, b) of the column-order code is w(b, a)), so every inner
// loop walks one contiguous row, and transposes W into `vectors` once at the
// end.  Expressions and loop order are unchanged, so without FMA contraction
// (the default build) the results equal the column-order code's bit for bit;
// a build that lets the compiler contract a * b + c into FMAs contracts the
// row loops differently and moves the bits at roundoff.

#include "linalg/matrix.hpp"

namespace slim::eigenx {

/// Result of a symmetric eigendecomposition A = X diag(values) X^T.
struct SymEigenResult {
  linalg::Vector values;  ///< Eigenvalues in ascending order.
  linalg::Matrix vectors; ///< Orthonormal eigenvectors; column j pairs with values[j].
};

/// Householder + implicit-QL eigendecomposition of a symmetric matrix.
/// Only the lower triangle of `a` is referenced.  Throws std::runtime_error
/// if the QL iteration fails to converge (pathological input).
SymEigenResult symEigen(const linalg::Matrix& a);

/// Cyclic Jacobi eigendecomposition; O(n^3) per sweep, typically 6-10 sweeps.
/// Slower than symEigen but a fully independent algorithm: used as the
/// cross-check oracle in tests.
SymEigenResult symEigenJacobi(const linalg::Matrix& a, int maxSweeps = 50);

/// max_j || A x_j - lambda_j x_j ||_inf — backward-error style residual.
double eigenResidual(const linalg::Matrix& a, const SymEigenResult& r);

/// max_ij | (X^T X - I)_ij | — orthonormality defect of the eigenvectors.
double orthogonalityError(const linalg::Matrix& vectors);

}  // namespace slim::eigenx
