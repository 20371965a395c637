// Vendor-BLAS backend: the hot-op kernel table expressed in generic CBLAS
// (OpenBLAS, MKL, BLIS, ... — anything exposing <cblas.h>).  Compiled with
// real content only under -DSLIM_WITH_BLAS=ON; otherwise this TU is the
// "not compiled" stub, mirroring how kernels_avx2.cpp returns nullptr on
// non-x86 builds.
//
// The fused Pi-sandwich ops cannot be fused inside a vendor kernel, so they
// run as dgemm/dsyrk followed by one O(n^2) scale-and-clamp pass.  The
// clamp policy is identical to the scalar reference (roundoff negatives of
// P(t) to 0, derivatives untouched); the products themselves may be
// reassociated by the vendor kernel, hence the <= 1e-10 (not bit) lnL
// agreement contract documented in compute_backend.hpp.

#include "backend/compute_backend.hpp"

#if SLIM_WITH_BLAS

#include <cblas.h>

#include <cstddef>
#include <vector>

namespace slim::backend {

namespace {

void gemmBlas(const double* a, const double* b, double* c, std::size_t m,
              std::size_t k, std::size_t n) {
  cblas_dgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, static_cast<int>(m),
              static_cast<int>(n), static_cast<int>(k), 1.0, a,
              static_cast<int>(k), b, static_cast<int>(n), 0.0, c,
              static_cast<int>(n));
}

void gemmNTBlas(const double* a, const double* b, double* c, std::size_t m,
                std::size_t k, std::size_t n) {
  // c[m x n] := a[m x k] * b[n x k]^T — b is stored row-major n x k.
  cblas_dgemm(CblasRowMajor, CblasNoTrans, CblasTrans, static_cast<int>(m),
              static_cast<int>(n), static_cast<int>(k), 1.0, a,
              static_cast<int>(k), b, static_cast<int>(k), 0.0, c,
              static_cast<int>(n));
}

void syrkBlas(const double* y, double* c, std::size_t n, std::size_t k) {
  cblas_dsyrk(CblasRowMajor, CblasUpper, CblasNoTrans, static_cast<int>(n),
              static_cast<int>(k), 1.0, y, static_cast<int>(k), 0.0, c,
              static_cast<int>(n));
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) c[i * n + j] = c[j * n + i];
}

// Element (i, j) of a sandwich's m x n result is stored at c[i * rs +
// j * cs], (rs, cs) = (n, 1) for the plain layout and (1, m) for the
// transposed one, as in the other tables.
void syrkSandwichBlas(const double* y, const double* l, const double* r,
                      double* p, std::size_t n, std::size_t k,
                      linalg::OutputLayout layout) {
  cblas_dsyrk(CblasRowMajor, CblasUpper, CblasNoTrans, static_cast<int>(n),
              static_cast<int>(k), 1.0, y, static_cast<int>(k), 0.0, p,
              static_cast<int>(n));
  // Mirror + sandwich + clamp in one pass over the upper triangle, keeping
  // the (l[i] * t) * r[j] association of the scalar reference.  Each pass
  // reads (i, j) before it writes there, and never reads the lower triangle.
  const bool plain = layout == linalg::OutputLayout::Plain;
  const std::size_t rs = plain ? n : 1, cs = plain ? 1 : n;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double t = p[i * n + j];
      const double pij = l[i] * t * r[j];
      const double pji = l[j] * t * r[i];
      p[i * rs + j * cs] = pij < 0.0 ? 0.0 : pij;
      p[j * rs + i * cs] = pji < 0.0 ? 0.0 : pji;
    }
  }
}

void gemmNTSandwichBlas(const double* a, const double* b, const double* l,
                        const double* r, double* c, std::size_t m,
                        std::size_t k, std::size_t n, bool clampNegative,
                        linalg::OutputLayout layout) {
  // The vendor product lands in c for the plain layout and in a per-thread
  // scratch for the transposed one, so the scale pass below reads the same
  // product either way.
  thread_local std::vector<double> scratch;
  const bool plain = layout == linalg::OutputLayout::Plain;
  double* z = c;
  if (!plain) {
    scratch.resize(m * n);
    z = scratch.data();
  }
  gemmNTBlas(a, b, z, m, k, n);
  const std::size_t rs = plain ? n : 1, cs = plain ? 1 : m;
  for (std::size_t i = 0; i < m; ++i) {
    const double li = l[i];
    const double* zrow = z + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = li * zrow[j] * r[j];
      c[i * rs + j * cs] = clampNegative && v < 0.0 ? 0.0 : v;
    }
  }
}

constexpr linalg::SimdKernels kBlasKernels{
    "blas",   gemmBlas,         gemmNTBlas,
    syrkBlas, syrkSandwichBlas, gemmNTSandwichBlas,
};

}  // namespace

namespace detail {
const linalg::SimdKernels* blasKernelTable() noexcept { return &kBlasKernels; }
}  // namespace detail

}  // namespace slim::backend

#else  // !SLIM_WITH_BLAS

namespace slim::backend::detail {
const linalg::SimdKernels* blasKernelTable() noexcept { return nullptr; }
}  // namespace slim::backend::detail

#endif  // SLIM_WITH_BLAS
