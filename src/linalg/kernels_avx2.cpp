// AVX2+FMA kernel table.  This translation unit is the only place AVX2
// instructions are emitted (CMake compiles it with -mavx2 -mfma when the
// compiler supports them and defines SLIM_SIMD_AVX2); everything it defines
// is reached exclusively through the function-pointer table, which
// simd.cpp hands out only after __builtin_cpu_supports("avx2") confirms the
// host can execute it.  The file deliberately includes no project header
// with inline function bodies besides the lean simd.hpp, so no AVX-compiled
// copy of a shared inline function can leak into generic code via the
// linker.
//
// Determinism: gemm gives every element of C the k-ordered FMA chain from
// +0.0, the tail columns included, whatever block of registers holds it, and
// the dot kernels accumulate in four fixed vector partials reduced in a
// fixed tree — results depend only on operand values, never on how callers
// partition rows across threads or blocks.

#include "linalg/simd.hpp"

#if defined(SLIM_SIMD_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace slim::linalg::detail {

namespace {

// Sum the four lanes: (v0 + v2) + (v1 + v3) — fixed reduction tree.
inline double hsum4(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// 4-accumulator dot over contiguous rows (k is 61 for codon panels).
inline double dotAvx2(const double* SLIM_RESTRICT x,
                      const double* SLIM_RESTRICT y, std::size_t kk) noexcept {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd(), s3 = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 16 <= kk; k += 16) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 4), _mm256_loadu_pd(y + k + 4),
                         s1);
    s2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 8), _mm256_loadu_pd(y + k + 8),
                         s2);
    s3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 12),
                         _mm256_loadu_pd(y + k + 12), s3);
  }
  for (; k + 4 <= kk; k += 4)
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k), s0);
  double t = hsum4(_mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3)));
  for (; k < kk; ++k) t += x[k] * y[k];
  return t;
}

// Register-blocked gemm.  A block of C, up to four rows by up to three
// vectors of four columns, lives in ymm accumulators for the whole k loop;
// each k step loads the block's B vectors once and broadcasts one A value
// per row.  The last n mod 4 columns run as their own one-vector block
// through maskload/maskstore, which keeps the widest block's twelve
// accumulators, three B vectors and one broadcast within the sixteen ymm
// registers.
template <int Rows, int Vecs, bool Tail>
void gemmBlock(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
               double* SLIM_RESTRICT c, std::size_t kk, std::size_t n,
               __m256i tm) noexcept {
  __m256d acc[Rows][Vecs];
#pragma GCC unroll 4
  for (int r = 0; r < Rows; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < Vecs; ++v) acc[r][v] = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* SLIM_RESTRICT bk = b + k * n;
    __m256d bv[Vecs];
#pragma GCC unroll 4
    for (int v = 0; v < Vecs; ++v)
      bv[v] = Tail ? _mm256_maskload_pd(bk + 4 * v, tm)
                   : _mm256_loadu_pd(bk + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < Rows; ++r) {
      const __m256d ar = _mm256_broadcast_sd(a + r * kk + k);
#pragma GCC unroll 4
      for (int v = 0; v < Vecs; ++v)
        acc[r][v] = _mm256_fmadd_pd(ar, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < Rows; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < Vecs; ++v) {
      double* SLIM_RESTRICT cv = c + r * n + 4 * v;
      if (Tail)
        _mm256_maskstore_pd(cv, tm, acc[r][v]);
      else
        _mm256_storeu_pd(cv, acc[r][v]);
    }
}

// One block of rows across every column: full 12-column panels, then the
// remaining full vectors, then the masked tail.
template <int Rows>
void gemmRows(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
              double* SLIM_RESTRICT c, std::size_t kk, std::size_t n) noexcept {
  const __m256i none = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 12 <= n; j += 12)
    gemmBlock<Rows, 3, false>(a, b + j, c + j, kk, n, none);
  if (j + 8 <= n) {
    gemmBlock<Rows, 2, false>(a, b + j, c + j, kk, n, none);
    j += 8;
  } else if (j + 4 <= n) {
    gemmBlock<Rows, 1, false>(a, b + j, c + j, kk, n, none);
    j += 4;
  }
  if (j < n) {
    const __m256i tm =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n - j)),
                           _mm256_setr_epi64x(0, 1, 2, 3));
    gemmBlock<Rows, 1, true>(a, b + j, c + j, kk, n, tm);
  }
}

void gemmAvx2(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
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

void gemmNTAvx2(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j)
      crow[j] = dotAvx2(arow, b + j * kk, kk);
  }
}

void syrkAvx2(const double* SLIM_RESTRICT y, double* SLIM_RESTRICT c,
              std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotAvx2(yi, y + j * kk, kk);
      c[i * n + j] = t;
      c[j * n + i] = t;
    }
  }
}

void syrkSandwichAvx2(const double* SLIM_RESTRICT y,
                      const double* SLIM_RESTRICT l,
                      const double* SLIM_RESTRICT r, double* SLIM_RESTRICT p,
                      std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotAvx2(yi, y + j * kk, kk);
      const double pij = l[i] * t * r[j];
      const double pji = l[j] * t * r[i];
      p[i * n + j] = pij < 0.0 ? 0.0 : pij;
      p[j * n + i] = pji < 0.0 ? 0.0 : pji;
    }
  }
}

void gemmNTSandwichAvx2(const double* SLIM_RESTRICT a,
                        const double* SLIM_RESTRICT b,
                        const double* SLIM_RESTRICT l,
                        const double* SLIM_RESTRICT r, double* SLIM_RESTRICT c,
                        std::size_t m, std::size_t kk, std::size_t n,
                        bool clampNegative) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    const double li = l[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double v = li * dotAvx2(arow, b + j * kk, kk) * r[j];
      crow[j] = clampNegative && v < 0.0 ? 0.0 : v;
    }
  }
}

constexpr SimdKernels kAvx2Kernels{
    "avx2",       gemmAvx2,         gemmNTAvx2,
    syrkAvx2,     syrkSandwichAvx2, gemmNTSandwichAvx2,
};

}  // namespace

const SimdKernels* avx2KernelTable() noexcept { return &kAvx2Kernels; }

}  // namespace slim::linalg::detail

#else  // !SLIM_SIMD_AVX2

namespace slim::linalg::detail {
const SimdKernels* avx2KernelTable() noexcept { return nullptr; }
}  // namespace slim::linalg::detail

#endif
