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
// a fixed tree.  The sandwich entries compute eight dots per reduction: each
// keeps the per-element dot's accumulator schedule, and one transposed add
// network runs the per-element tree in every lane, so every element has the
// bits of the unfused syrk / gemmNT followed by the sandwich and the clamp.

#include "linalg/simd.hpp"

#if defined(SLIM_SIMD_AVX512) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace slim::linalg::detail {

namespace {

inline __mmask8 tailMask(std::size_t n) noexcept {
  return static_cast<__mmask8>((1u << (n & 7)) - 1u);
}

// The horizontal sum ((v0 + v4) + (v2 + v6)) + ((v1 + v5) + (v3 + v7)):
// GCC's _mm512_reduce_add_pd tree, written out so that no compiler's
// reduction order can move a bit.
inline double reduceAdd(__m512d v) noexcept {
  const __m256d a = _mm256_add_pd(_mm512_castpd512_pd256(v),
                                  _mm512_extractf64x4_pd(v, 1));
  const __m128d b =
      _mm_add_pd(_mm256_castpd256_pd128(a), _mm256_extractf128_pd(a, 1));
  return _mm_cvtsd_f64(_mm_add_sd(b, _mm_unpackhi_pd(b, b)));
}

// Lane u of the result is reduceAdd(v[u]), bit for bit: one transposed add
// network runs reduceAdd's tree in every lane.  Stage 1 adds the 256-bit
// halves of two vectors at once, stage 2 the 128-bit quarters of four, and
// stage 3 the two lanes of eight.
inline __m512d reduceAdd8(const __m512d (&v)[8]) noexcept {
  const auto halves = [](__m512d p, __m512d q) {  // [a(p) | a(q)]
    return _mm512_add_pd(_mm512_shuffle_f64x2(p, q, 0x44),
                         _mm512_shuffle_f64x2(p, q, 0xEE));
  };
  const auto quarters = [](__m512d p, __m512d q) {  // [b(p0) b(p1) b(q0) b(q1)]
    return _mm512_add_pd(_mm512_shuffle_f64x2(p, q, 0x88),
                         _mm512_shuffle_f64x2(p, q, 0xDD));
  };
  const __m512d even = quarters(halves(v[0], v[2]), halves(v[4], v[6]));
  const __m512d odd = quarters(halves(v[1], v[3]), halves(v[5], v[7]));
  return _mm512_add_pd(_mm512_unpacklo_pd(even, odd),
                       _mm512_unpackhi_pd(even, odd));
}

// The four accumulators of a dot over rows of kk doubles, summed as
// (s0 + s1) + (s2 + s3): 32-element steps spread over s0..s3, the remaining
// full vectors into s0, the masked tail into s1.
inline __m512d dotPartials(const double* SLIM_RESTRICT x,
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
  return _mm512_add_pd(_mm512_add_pd(s0, s1), _mm512_add_pd(s2, s3));
}

// dotPartials unrolled for kk = 8 * Full (+ a masked tail of kk mod 8 when
// Tail): the same chunk-to-accumulator schedule.  An accumulator's first
// chunk is fma(x, y, +0.0) as in the loop — a bare product could be
// contracted with the add that follows it into different bits.
template <int Full, bool Tail>
inline __m512d dotPartialsFixed(const double* SLIM_RESTRICT x,
                                const double* SLIM_RESTRICT y,
                                __mmask8 tm) noexcept {
  constexpr int kQuads = Full / 4 * 4;
  __m512d s[4] = {_mm512_setzero_pd(), _mm512_setzero_pd(),
                  _mm512_setzero_pd(), _mm512_setzero_pd()};
#pragma GCC unroll 16
  for (int c = 0; c < kQuads; ++c)
    s[c % 4] = _mm512_fmadd_pd(_mm512_loadu_pd(x + 8 * c),
                               _mm512_loadu_pd(y + 8 * c), s[c % 4]);
#pragma GCC unroll 4
  for (int c = kQuads; c < Full; ++c)
    s[0] = _mm512_fmadd_pd(_mm512_loadu_pd(x + 8 * c),
                           _mm512_loadu_pd(y + 8 * c), s[0]);
  if constexpr (Tail)
    s[1] = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tm, x + 8 * Full),
                           _mm512_maskz_loadu_pd(tm, y + 8 * Full), s[1]);
  return _mm512_add_pd(_mm512_add_pd(s[0], s[1]), _mm512_add_pd(s[2], s[3]));
}

inline double dotAvx512(const double* SLIM_RESTRICT x,
                        const double* SLIM_RESTRICT y,
                        std::size_t kk) noexcept {
  return reduceAdd(dotPartials(x, y, kk));
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

// Eight dots of x with rows + u * stride, u = 0..7, as one vector; lanes
// past `last` repeat row `last`, so no row past the operand is read.
template <class Partials>
inline __m512d dot8(const Partials& partials, const double* SLIM_RESTRICT x,
                    const double* rows, std::size_t stride,
                    std::size_t last) noexcept {
  __m512d v[8];
#pragma GCC unroll 8
  for (std::size_t u = 0; u < 8; ++u)
    v[u] = partials(x, rows + (u < last ? u : last) * stride);
  return reduceAdd8(v);
}

// Run kernel(partials) with the dot schedule for rows of kk doubles:
// unrolled for seven full vectors and a masked tail (kk = 57 to 63, which
// holds every genetic code's 60 to 62 sense codons), the generic loops
// otherwise.  Both give the same bits.
template <class Kernel>
inline void withPartials(std::size_t kk, const Kernel& kernel) {
  const __mmask8 tm = tailMask(kk);
  if (kk > 56 && kk < 64)
    kernel([tm](const double* x, const double* y) {
      return dotPartialsFixed<7, true>(x, y, tm);
    });
  else
    kernel([kk](const double* x, const double* y) {
      return dotPartials(x, y, kk);
    });
}

inline __mmask8 laneMask(std::size_t count) noexcept {
  return static_cast<__mmask8>((1u << count) - 1u);
}

// v < 0 ? +0.0 : v per lane.  A < mask, not max, so -0.0 and NaN keep their
// bits as in the per-element clamp.
inline __m512d clampNegative(__m512d v) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  return _mm512_mask_mov_pd(v, _mm512_cmp_pd_mask(v, zero, _CMP_LT_OQ), zero);
}

// Store lanes [0, count) of v at p[u * stride].
inline void storeStrided(double* p, std::size_t stride, __m512d v,
                         std::size_t count) noexcept {
  const __m512i idx = _mm512_mullo_epi64(
      _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
      _mm512_set1_epi64(static_cast<long long>(stride)));
  _mm512_mask_i64scatter_pd(p, laneMask(count), idx, v, 8);
}

// Row i's upper triangle, eight columns per reduction: (l[i] * t) * r[j]
// and (l[j] * t) * r[i], clamped, the first into row i of P and the second
// into column i (Plain), or the other way round (Transposed), so one of the
// two stores is contiguous in either layout.
void syrkSandwichAvx512(const double* SLIM_RESTRICT y,
                        const double* SLIM_RESTRICT l,
                        const double* SLIM_RESTRICT r, double* SLIM_RESTRICT p,
                        std::size_t n, std::size_t kk, OutputLayout layout) {
  const bool plain = layout == OutputLayout::Plain;
  withPartials(kk, [&](const auto& partials) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* SLIM_RESTRICT yi = y + i * kk;
      const __m512d li = _mm512_set1_pd(l[i]), ri = _mm512_set1_pd(r[i]);
      for (std::size_t j = i; j < n; j += 8) {
        const std::size_t count = n - j < 8 ? n - j : 8;
        const __mmask8 m = laneMask(count);
        const __m512d t = dot8(partials, yi, y + j * kk, kk, count - 1);
        const __m512d pij = clampNegative(_mm512_mul_pd(
            _mm512_mul_pd(li, t), _mm512_maskz_loadu_pd(m, r + j)));
        const __m512d pji = clampNegative(_mm512_mul_pd(
            _mm512_mul_pd(_mm512_maskz_loadu_pd(m, l + j), t), ri));
        _mm512_mask_storeu_pd(p + i * n + j, m, plain ? pij : pji);
        storeStrided(p + j * n + i, n, plain ? pji : pij, count);
      }
    }
  });
}

// Eight elements per reduction along the stored row: for Plain, row i of
// C with a_i held; for Transposed, row j of C^T with b_j held and eight
// values of i (fma(b, a, s) has the bits of fma(a, b, s)).
void gemmNTSandwichAvx512(const double* SLIM_RESTRICT a,
                          const double* SLIM_RESTRICT b,
                          const double* SLIM_RESTRICT l,
                          const double* SLIM_RESTRICT r,
                          double* SLIM_RESTRICT c, std::size_t m,
                          std::size_t kk, std::size_t n, bool clampNegatives,
                          OutputLayout layout) {
  const bool plain = layout == OutputLayout::Plain;
  withPartials(kk, [&](const auto& partials) {
    if (plain) {
      for (std::size_t i = 0; i < m; ++i) {
        const __m512d li = _mm512_set1_pd(l[i]);
        for (std::size_t j = 0; j < n; j += 8) {
          const std::size_t count = n - j < 8 ? n - j : 8;
          const __mmask8 mk = laneMask(count);
          const __m512d t =
              dot8(partials, a + i * kk, b + j * kk, kk, count - 1);
          __m512d v = _mm512_mul_pd(_mm512_mul_pd(li, t),
                                    _mm512_maskz_loadu_pd(mk, r + j));
          if (clampNegatives) v = clampNegative(v);
          _mm512_mask_storeu_pd(c + i * n + j, mk, v);
        }
      }
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d rj = _mm512_set1_pd(r[j]);
      for (std::size_t i = 0; i < m; i += 8) {
        const std::size_t count = m - i < 8 ? m - i : 8;
        const __mmask8 mk = laneMask(count);
        const __m512d t = dot8(partials, b + j * kk, a + i * kk, kk, count - 1);
        __m512d v = _mm512_mul_pd(
            _mm512_mul_pd(_mm512_maskz_loadu_pd(mk, l + i), t), rj);
        if (clampNegatives) v = clampNegative(v);
        _mm512_mask_storeu_pd(c + j * m + i, mk, v);
      }
    }
  });
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
