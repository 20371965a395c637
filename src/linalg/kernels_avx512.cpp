// AVX-512 (F/DQ/VL) kernel table.  Compiled with the AVX-512 ISA flags only
// in this translation unit (CMake defines SLIM_SIMD_AVX512 alongside them);
// reachable exclusively through the dispatch table after cpuid checks, and
// includes no project header with inline bodies besides simd.hpp — see
// kernels_avx2.cpp for the rationale.
//
// Determinism: gemm gives every element of C the k-ordered FMA chain from
// +0.0, whatever block of registers holds it, so its bits equal the AVX2
// table's and do not depend on how callers partition rows across threads or
// blocks.  n = 61 (sense codons) is 7 full zmm vectors plus a 5-lane masked
// tail.  The dot kernels accumulate in four fixed vector partials reduced in
// a fixed tree.

#include "linalg/simd.hpp"

#if defined(SLIM_SIMD_AVX512) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace slim::linalg::detail {

namespace {

inline __mmask8 tailMask(std::size_t n) noexcept {
  return static_cast<__mmask8>((1u << (n & 7)) - 1u);
}

// 4-accumulator dot; _mm512_reduce_add_pd is a fixed reduction tree.
inline double dotAvx512(const double* SLIM_RESTRICT x,
                        const double* SLIM_RESTRICT y,
                        std::size_t kk) noexcept {
  __m512d s0 = _mm512_setzero_pd(), s1 = _mm512_setzero_pd();
  __m512d s2 = _mm512_setzero_pd(), s3 = _mm512_setzero_pd();
  std::size_t k = 0;
  for (; k + 32 <= kk; k += 32) {
    s0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k), s0);
    s1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 8), _mm512_loadu_pd(y + k + 8),
                         s1);
    s2 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 16),
                         _mm512_loadu_pd(y + k + 16), s2);
    s3 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 24),
                         _mm512_loadu_pd(y + k + 24), s3);
  }
  for (; k + 8 <= kk; k += 8)
    s0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k), s0);
  if (k < kk) {
    const __mmask8 m = tailMask(kk);
    s1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, x + k),
                         _mm512_maskz_loadu_pd(m, y + k), s1);
  }
  return _mm512_reduce_add_pd(
      _mm512_add_pd(_mm512_add_pd(s0, s1), _mm512_add_pd(s2, s3)));
}

// Register-blocked gemm.  A block of C, up to four rows by up to four
// vectors of eight columns, lives in zmm accumulators for the whole k loop;
// each k step loads the block's B vectors once and broadcasts one A value
// per row.  Only the row's last vector, when n is not a multiple of 8,
// loads and stores through a mask.
template <int Rows, int Vecs, bool Tail>
void gemmBlock(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
               double* SLIM_RESTRICT c, std::size_t kk, std::size_t n,
               __mmask8 tm) noexcept {
  __m512d acc[Rows][Vecs];
#pragma GCC unroll 4
  for (int r = 0; r < Rows; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < Vecs; ++v) acc[r][v] = _mm512_setzero_pd();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* SLIM_RESTRICT bk = b + k * n;
    __m512d bv[Vecs];
#pragma GCC unroll 4
    for (int v = 0; v < Vecs; ++v)
      bv[v] = Tail && v == Vecs - 1 ? _mm512_maskz_loadu_pd(tm, bk + 8 * v)
                                    : _mm512_loadu_pd(bk + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < Rows; ++r) {
      const __m512d ar = _mm512_set1_pd(a[r * kk + k]);
#pragma GCC unroll 4
      for (int v = 0; v < Vecs; ++v)
        acc[r][v] = _mm512_fmadd_pd(ar, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < Rows; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < Vecs; ++v) {
      double* SLIM_RESTRICT cv = c + r * n + 8 * v;
      if (Tail && v == Vecs - 1)
        _mm512_mask_storeu_pd(cv, tm, acc[r][v]);
      else
        _mm512_storeu_pd(cv, acc[r][v]);
    }
}

// The columns after the last full 32-column panel: Vecs vectors, the last
// one masked when n is not a multiple of 8 (tm != 0).
template <int Rows, int Vecs>
void gemmRest(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
              double* SLIM_RESTRICT c, std::size_t kk, std::size_t n,
              __mmask8 tm) noexcept {
  if (tm != 0)
    gemmBlock<Rows, Vecs, true>(a, b, c, kk, n, tm);
  else
    gemmBlock<Rows, Vecs, false>(a, b, c, kk, n, tm);
}

// One block of rows across every column.
template <int Rows>
void gemmRows(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
              double* SLIM_RESTRICT c, std::size_t kk, std::size_t n) noexcept {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32)
    gemmBlock<Rows, 4, false>(a, b + j, c + j, kk, n, 0);
  const __mmask8 tm = tailMask(n);
  switch ((n - j + 7) / 8) {
    case 4: gemmRest<Rows, 4>(a, b + j, c + j, kk, n, tm); break;
    case 3: gemmRest<Rows, 3>(a, b + j, c + j, kk, n, tm); break;
    case 2: gemmRest<Rows, 2>(a, b + j, c + j, kk, n, tm); break;
    case 1: gemmRest<Rows, 1>(a, b + j, c + j, kk, n, tm); break;
    default: break;
  }
}

void gemmAvx512(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) gemmRows<4>(a + i * kk, b, c + i * n, kk, n);
  switch (m - i) {
    case 3: gemmRows<3>(a + i * kk, b, c + i * n, kk, n); break;
    case 2: gemmRows<2>(a + i * kk, b, c + i * n, kk, n); break;
    case 1: gemmRows<1>(a + i * kk, b, c + i * n, kk, n); break;
    default: break;
  }
}

void gemmNTAvx512(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                  double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                  std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j)
      crow[j] = dotAvx512(arow, b + j * kk, kk);
  }
}

void syrkAvx512(const double* SLIM_RESTRICT y, double* SLIM_RESTRICT c,
                std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotAvx512(yi, y + j * kk, kk);
      c[i * n + j] = t;
      c[j * n + i] = t;
    }
  }
}

void syrkSandwichAvx512(const double* SLIM_RESTRICT y,
                        const double* SLIM_RESTRICT l,
                        const double* SLIM_RESTRICT r, double* SLIM_RESTRICT p,
                        std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotAvx512(yi, y + j * kk, kk);
      const double pij = l[i] * t * r[j];
      const double pji = l[j] * t * r[i];
      p[i * n + j] = pij < 0.0 ? 0.0 : pij;
      p[j * n + i] = pji < 0.0 ? 0.0 : pji;
    }
  }
}

void gemmNTSandwichAvx512(const double* SLIM_RESTRICT a,
                          const double* SLIM_RESTRICT b,
                          const double* SLIM_RESTRICT l,
                          const double* SLIM_RESTRICT r,
                          double* SLIM_RESTRICT c, std::size_t m,
                          std::size_t kk, std::size_t n, bool clampNegative) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    const double li = l[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double v = li * dotAvx512(arow, b + j * kk, kk) * r[j];
      crow[j] = clampNegative && v < 0.0 ? 0.0 : v;
    }
  }
}

constexpr SimdKernels kAvx512Kernels{
    "avx512",     gemmAvx512,         gemmNTAvx512,
    syrkAvx512,   syrkSandwichAvx512, gemmNTSandwichAvx512,
};

}  // namespace

const SimdKernels* avx512KernelTable() noexcept { return &kAvx512Kernels; }

}  // namespace slim::linalg::detail

#else  // !SLIM_SIMD_AVX512

namespace slim::linalg::detail {
const SimdKernels* avx512KernelTable() noexcept { return nullptr; }
}  // namespace slim::linalg::detail

#endif
