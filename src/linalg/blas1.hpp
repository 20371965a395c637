#pragma once
// BLAS level-1 style kernels (vector-vector).  These are cheap relative to
// the level-2/3 kernels so only one implementation is provided; they are
// shared by both engine flavors.

#include <cstddef>
#include <span>

namespace slim::linalg {

/// Dot product sum_i x_i * y_i.  Sizes must match.
double dot(std::span<const double> x, std::span<const double> y);

/// Copy x into y.  Sizes must match.
void copy(std::span<const double> x, std::span<double> y);

/// In-place element-wise product: y_i *= x_i.  Sizes must match.
/// (Used by Felsenstein pruning to combine child conditional vectors.)
void hadamardInPlace(std::span<const double> x, std::span<double> y);

}  // namespace slim::linalg
