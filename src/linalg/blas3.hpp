#pragma once
// BLAS level-3 style panel products through a kernel table
// (linalg/simd.hpp), with the shape and alias checks the raw table entries
// leave to their callers.
//
// gemm is the bundled CPV-propagation kernel (Sec. III-B "single matrix x
// matrix operation ... including all sites"); gemmNT is the per-site
// propagation W P^T, whose row h is CodeML's matrix x vector product P w_h.

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace slim::linalg {

/// C := A * B.  Shapes: A (m x k), B (k x n), C (m x n); C is overwritten.
/// Row i of C depends only on row i of A, so any row partition of a panel
/// produces bit-identical results.
void gemm(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
          MatrixView c);

/// C := A * B^T.  Shapes: A (m x k), B (n x k), C (m x n); C is overwritten.
void gemmNT(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
            MatrixView c);

}  // namespace slim::linalg
