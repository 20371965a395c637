#include "linalg/blas3.hpp"

#include "support/require.hpp"

namespace slim::linalg {

void gemm(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
          MatrixView c) {
  SLIM_REQUIRE(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  SLIM_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "gemm: output shape mismatch");
  SLIM_REQUIRE(c.data() != a.data() && c.data() != b.data(),
               "gemm: output must not alias inputs");
  kern.gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
}

void gemmNT(const SimdKernels& kern, ConstMatrixView a, ConstMatrixView b,
            MatrixView c) {
  SLIM_REQUIRE(a.cols() == b.cols(), "gemmNT: inner dimension mismatch");
  SLIM_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
               "gemmNT: output shape mismatch");
  SLIM_REQUIRE(c.data() != a.data() && c.data() != b.data(),
               "gemmNT: output must not alias inputs");
  kern.gemmNT(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.rows());
}

}  // namespace slim::linalg
