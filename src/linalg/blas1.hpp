#pragma once
// BLAS level-1 style kernels (vector-vector).  These are cheap relative to
// the level-2/3 kernels so only one implementation is provided; they are
// shared by both engine flavors.

#include <cstddef>
#include <span>

namespace slim::linalg {

/// Dot product sum_i x_i * y_i.  Sizes must match.
double dot(std::span<const double> x, std::span<const double> y);

}  // namespace slim::linalg
