#include "linalg/simd.hpp"

#include <stdexcept>
#include <string>

namespace slim::linalg {

namespace {

// --- naive kernels: CodeML's loop nests ---------------------------------
//
// PAML's matby transcription: one accumulator per output element, starting
// from 0.0, summed in k order; gemm reads B down a column (strided).  No
// restrict, no blocking, no symmetric kernel.  The sandwich entries compute
// each element of the general product first and then (l[i] * t) * r[j] and
// the clamp, the order of a product + scaleSandwich + clamp sequence.

void gemmNaive(const double* a, const double* b, double* c, std::size_t m,
               std::size_t kk, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double t = 0.0;
      for (std::size_t k = 0; k < kk; ++k) t += a[i * kk + k] * b[k * n + j];
      c[i * n + j] = t;
    }
}

double dotNaive(const double* x, const double* y, std::size_t kk) {
  double t = 0.0;
  for (std::size_t k = 0; k < kk; ++k) t += x[k] * y[k];
  return t;
}

void gemmNTNaive(const double* a, const double* b, double* c, std::size_t m,
                 std::size_t kk, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      c[i * n + j] = dotNaive(a + i * kk, b + j * kk, kk);
}

// The full product Y Y^T, 2 n^2 k flops: what a code base without a
// symmetric kernel runs (the cost expm_kernels times for Eq. 10 naive).
void syrkNaive(const double* y, double* c, std::size_t n, std::size_t kk) {
  gemmNTNaive(y, y, c, n, kk, n);
}

// Element (i, j) of a sandwich entry's m x n result is stored at
// c[i * rs + j * cs]: (rs, cs) = (n, 1) for the plain layout and (1, m) for
// the transposed one.  The vector tables use the same addressing.
void gemmNTSandwichNaive(const double* a, const double* b, const double* l,
                         const double* r, double* c, std::size_t m,
                         std::size_t kk, std::size_t n, bool clampNegative,
                         OutputLayout layout) {
  const bool plain = layout == OutputLayout::Plain;
  const std::size_t rs = plain ? n : 1, cs = plain ? 1 : m;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double v = l[i] * dotNaive(a + i * kk, b + j * kk, kk) * r[j];
      c[i * rs + j * cs] = clampNegative && v < 0.0 ? 0.0 : v;
    }
}

void syrkSandwichNaive(const double* y, const double* l, const double* r,
                       double* p, std::size_t n, std::size_t kk,
                       OutputLayout layout) {
  gemmNTSandwichNaive(y, y, l, r, p, n, kk, n, /*clampNegative=*/true, layout);
}

constexpr SimdKernels kNaiveKernels{
    "naive",           gemmNaive,         gemmNTNaive,
    syrkNaive,         syrkSandwichNaive, gemmNTSandwichNaive,
};

// --- scalar reference kernels -------------------------------------------
//
// The tuned loop nests on raw pointers, compiled for the generic target.
// The fused variants keep the exact association of the unfused sequence —
// dot accumulated in four partials, then (l[i] * dot) * r[j] as in
// scaleSandwich's li * z * r[j] — so fused and unfused scalar
// reconstructions are bit-identical.

void gemmScalar(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    const double* SLIM_RESTRICT arow = a + i * kk;
    std::size_t k = 0;
    for (; k + 4 <= kk; k += 4) {
      const double a0 = arow[k], a1 = arow[k + 1], a2 = arow[k + 2],
                   a3 = arow[k + 3];
      const double* SLIM_RESTRICT b0 = b + k * n;
      const double* SLIM_RESTRICT b1 = b + (k + 1) * n;
      const double* SLIM_RESTRICT b2 = b + (k + 2) * n;
      const double* SLIM_RESTRICT b3 = b + (k + 3) * n;
      for (std::size_t j = 0; j < n; ++j)
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
    for (; k < kk; ++k) {
      const double ak = arow[k];
      const double* SLIM_RESTRICT brow = b + k * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ak * brow[j];
    }
  }
}

inline double dotScalar(const double* SLIM_RESTRICT x,
                        const double* SLIM_RESTRICT y, std::size_t kk) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= kk; k += 4) {
    s0 += x[k] * y[k];
    s1 += x[k + 1] * y[k + 1];
    s2 += x[k + 2] * y[k + 2];
    s3 += x[k + 3] * y[k + 3];
  }
  double t = (s0 + s1) + (s2 + s3);
  for (; k < kk; ++k) t += x[k] * y[k];
  return t;
}

void gemmNTScalar(const double* SLIM_RESTRICT a, const double* SLIM_RESTRICT b,
                  double* SLIM_RESTRICT c, std::size_t m, std::size_t kk,
                  std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = dotScalar(arow, b + j * kk, kk);
  }
}

void syrkScalar(const double* SLIM_RESTRICT y, double* SLIM_RESTRICT c,
                std::size_t n, std::size_t kk) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    double* SLIM_RESTRICT crow = c + i * n;
    for (std::size_t j = i; j < n; ++j) crow[j] = dotScalar(yi, y + j * kk, kk);
  }
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) c[i * n + j] = c[j * n + i];
}

void syrkSandwichScalar(const double* SLIM_RESTRICT y,
                        const double* SLIM_RESTRICT l,
                        const double* SLIM_RESTRICT r, double* SLIM_RESTRICT p,
                        std::size_t n, std::size_t kk, OutputLayout layout) {
  const bool plain = layout == OutputLayout::Plain;
  const std::size_t rs = plain ? n : 1, cs = plain ? 1 : n;
  for (std::size_t i = 0; i < n; ++i) {
    const double* SLIM_RESTRICT yi = y + i * kk;
    for (std::size_t j = i; j < n; ++j) {
      const double t = dotScalar(yi, y + j * kk, kk);
      const double pij = l[i] * t * r[j];
      const double pji = l[j] * t * r[i];
      p[i * rs + j * cs] = pij < 0.0 ? 0.0 : pij;
      p[j * rs + i * cs] = pji < 0.0 ? 0.0 : pji;
    }
  }
}

void gemmNTSandwichScalar(const double* SLIM_RESTRICT a,
                          const double* SLIM_RESTRICT b,
                          const double* SLIM_RESTRICT l,
                          const double* SLIM_RESTRICT r,
                          double* SLIM_RESTRICT c, std::size_t m,
                          std::size_t kk, std::size_t n, bool clampNegative,
                          OutputLayout layout) {
  const bool plain = layout == OutputLayout::Plain;
  const std::size_t rs = plain ? n : 1, cs = plain ? 1 : m;
  for (std::size_t i = 0; i < m; ++i) {
    const double* SLIM_RESTRICT arow = a + i * kk;
    double* SLIM_RESTRICT crow = c + i * rs;
    const double li = l[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double v = li * dotScalar(arow, b + j * kk, kk) * r[j];
      crow[j * cs] = clampNegative && v < 0.0 ? 0.0 : v;
    }
  }
}

constexpr SimdKernels kScalarKernels{
    "scalar",          gemmScalar,         gemmNTScalar,
    syrkScalar,        syrkSandwichScalar, gemmNTSandwichScalar,
};

bool cpuSupports(SimdLevel level) noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (level) {
    case SimdLevel::Scalar:
      return true;
    case SimdLevel::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case SimdLevel::Avx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return level == SimdLevel::Scalar;
#endif
}

const SimdKernels* compiledTable(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Scalar:
      return &kScalarKernels;
    case SimdLevel::Avx2:
      return detail::avx2KernelTable();
    case SimdLevel::Avx512:
      return detail::avx512KernelTable();
  }
  return nullptr;
}

}  // namespace

const char* simdModeName(SimdMode m) noexcept {
  switch (m) {
    case SimdMode::Auto: return "auto";
    case SimdMode::Scalar: return "scalar";
    case SimdMode::Avx2: return "avx2";
    case SimdMode::Avx512: return "avx512";
  }
  return "?";
}

const char* simdLevelName(SimdLevel l) noexcept {
  switch (l) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2: return "avx2";
    case SimdLevel::Avx512: return "avx512";
  }
  return "?";
}

bool parseSimdMode(std::string_view text, SimdMode& out) noexcept {
  if (text == "auto") out = SimdMode::Auto;
  else if (text == "scalar") out = SimdMode::Scalar;
  else if (text == "avx2") out = SimdMode::Avx2;
  else if (text == "avx512") out = SimdMode::Avx512;
  else return false;
  return true;
}

bool simdLevelCompiled(SimdLevel level) noexcept {
  return compiledTable(level) != nullptr;
}

bool simdLevelAvailable(SimdLevel level) noexcept {
  return simdLevelCompiled(level) && cpuSupports(level);
}

SimdLevel detectSimdLevel() noexcept {
  if (simdLevelAvailable(SimdLevel::Avx512)) return SimdLevel::Avx512;
  if (simdLevelAvailable(SimdLevel::Avx2)) return SimdLevel::Avx2;
  return SimdLevel::Scalar;
}

SimdLevel resolveSimdLevel(SimdMode mode) {
  switch (mode) {
    case SimdMode::Auto:
      return detectSimdLevel();
    case SimdMode::Scalar:
      return SimdLevel::Scalar;
    case SimdMode::Avx2:
    case SimdMode::Avx512: {
      const SimdLevel level =
          mode == SimdMode::Avx2 ? SimdLevel::Avx2 : SimdLevel::Avx512;
      if (!simdLevelCompiled(level))
        throw std::invalid_argument(
            std::string("simd = ") + simdModeName(mode) +
            ": kernels not compiled into this binary (non-x86 target or "
            "compiler without the ISA flags)");
      if (!cpuSupports(level))
        throw std::invalid_argument(std::string("simd = ") +
                                    simdModeName(mode) +
                                    ": this CPU does not support the "
                                    "required instruction set");
      return level;
    }
  }
  return SimdLevel::Scalar;
}

const SimdKernels& naiveKernels() noexcept { return kNaiveKernels; }

KernelChoice resolveKernels(Flavor flavor, SimdMode simd) {
  if (flavor == Flavor::Naive) return {kNaiveKernels, SimdLevel::Scalar};
  const SimdLevel level = resolveSimdLevel(simd);
  return {simdKernels(level), level};
}

const char* backendLabel(SimdLevel level) noexcept {
  return level == SimdLevel::Scalar ? "reference" : "simd";
}

const SimdKernels& simdKernels(SimdLevel level) {
  const SimdKernels* table = compiledTable(level);
  if (table == nullptr || !cpuSupports(level))
    throw std::invalid_argument(std::string("simdKernels: level '") +
                                simdLevelName(level) + "' is not available");
  return *table;
}

}  // namespace slim::linalg
