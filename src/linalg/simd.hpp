#pragma once
// Kernel tables: the five-entry function-pointer interface through which
// every propagator build, panel product and gradient product of the engine
// runs, plus the cpuid-checked dispatch among the vector tables.
//
//   naive          CodeML's hand-rolled loop nests, the paper's baseline:
//                  dot-form gemm with strided access of B, one accumulator,
//                  no blocking, no restrict.  syrk is the full general
//                  product (2 n^2 k flops — no symmetric kernel), and the
//                  sandwich entries apply l[i] * t * r[j] (then the clamp)
//                  to each element of that product.
//   scalar         The tuned loop nests compiled for the generic target:
//                  saxpy-form gemm, four-accumulator dot products, mirrored
//                  syrk, and the Pi^{-1/2}/Pi^{1/2} sandwich fused into the
//                  rank-update loop.
//   avx2, avx512   Hand-vectorized variants of the scalar table, selected
//                  once per evaluator through simdKernels(level); their gemm
//                  is a register-blocked micro-kernel (4 rows x 12 columns
//                  in ymm, 4 rows x 32 columns in zmm).
//   blas           Vendor CBLAS (backend/backend_blas.cpp).
//
// backend::resolveComputeBackend picks the one table an evaluator uses.
//
// Contract (asserted by tests/simd_kernel_test.cpp):
//   * The fused sandwich entries of the naive and scalar tables reproduce
//     their table's product followed by scaleSandwich and the clamp, bit
//     for bit.
//   * The vector tables' gemm computes every element as the k-ordered FMA
//     chain from +0.0, c(i,j) = fma(a(i,k-1), b(k-1,j), ... fma(a(i,0),
//     b(0,j), +0.0)).  So avx2 and avx512 gemm agree bit for bit, and their
//     register blocking cannot be seen in the results.
//   * Every SIMD level is deterministic per row of output — results are
//     bit-identical across thread counts and pattern-block sizes — and
//     agrees with scalar to <= 1e-10 relative on the log-likelihood.
//
// This header is intentionally lean (no inline function bodies beyond the
// POD struct): it is included by translation units compiled with wider ISA
// flags, and keeping all code out-of-line prevents the linker from ever
// picking an AVX-compiled copy of a shared inline function for generic code.

#include <cstddef>
#include <string_view>

#ifndef SLIM_RESTRICT
#if defined(__GNUC__) || defined(__clang__)
#define SLIM_RESTRICT __restrict__
#else
#define SLIM_RESTRICT
#endif
#endif

namespace slim::linalg {

/// What the user asked for (`simd =` ctl key / LikelihoodOptions::simd).
enum class SimdMode {
  Auto,    ///< Best level compiled in AND supported by this CPU.
  Scalar,  ///< Force the scalar reference kernels.
  Avx2,    ///< Require AVX2+FMA; evaluator construction fails if unavailable.
  Avx512,  ///< Require AVX-512 F/DQ/VL; fails if unavailable.
};

/// What the dispatch actually selected (recorded in reports).
enum class SimdLevel {
  Scalar,
  Avx2,
  Avx512,
};

const char* simdModeName(SimdMode m) noexcept;
const char* simdLevelName(SimdLevel l) noexcept;

/// Parse a ctl-file value ("auto", "scalar", "avx2", "avx512").  Returns
/// false on unknown text (out untouched).
bool parseSimdMode(std::string_view text, SimdMode& out) noexcept;

/// One kernel table.  All matrices are dense row-major and contiguous
/// (leading dimension == column count), the layout every panel and
/// propagator in the engine uses.  Row i of each output depends only on the
/// operands' row i (gemm/gemmNT) or on the full inputs in a fixed
/// accumulation order (syrk), so any row-partition of a call produces
/// bit-identical results — the property the pattern-blocked engine's
/// thread-count/block-size invariance rests on.
struct SimdKernels {
  const char* name;

  /// c[m x n] := a[m x k] * b[k x n].
  void (*gemm)(const double* a, const double* b, double* c, std::size_t m,
               std::size_t k, std::size_t n);

  /// c[m x n] := a[m x k] * b[n x k]^T (dot products of contiguous rows).
  void (*gemmNT)(const double* a, const double* b, double* c, std::size_t m,
                 std::size_t k, std::size_t n);

  /// c[n x n] := y[n x k] * y^T (the vector tables compute the upper
  /// triangle once and mirror it).
  void (*syrk)(const double* y, double* c, std::size_t n, std::size_t k);

  /// Fused Eq. 10 reconstruction: p := diag(l) (Y Y^T) diag(r) with
  /// roundoff negatives clamped to 0, the Pi sandwich and clamp folded into
  /// the rank-update loop (each dot is written twice, pre-scaled, instead
  /// of mirror + two O(n^2) scaling passes).  l = Pi^{-1/2}, r = Pi^{1/2}.
  void (*syrkSandwich)(const double* y, const double* l, const double* r,
                       double* p, std::size_t n, std::size_t k);

  /// Fused Eq. 9 form: c[m x n] := diag(l) (A B^T) diag(r); clampNegative
  /// selects the P(t) policy (on) or the dP/dt policy (off — derivatives
  /// legitimately carry negative entries).
  void (*gemmNTSandwich)(const double* a, const double* b, const double* l,
                         const double* r, double* c, std::size_t m,
                         std::size_t k, std::size_t n, bool clampNegative);
};

/// Whether this binary contains kernels for the level (compile-time gate:
/// x86-64 target and a compiler accepting the ISA flags).
bool simdLevelCompiled(SimdLevel level) noexcept;

/// Compiled in AND supported by the running CPU.
bool simdLevelAvailable(SimdLevel level) noexcept;

/// Best available level (what SimdMode::Auto resolves to).
SimdLevel detectSimdLevel() noexcept;

/// Resolve a requested mode.  Auto picks detectSimdLevel(); an explicit
/// level throws std::invalid_argument when the binary or CPU cannot run it
/// (so a ctl file demanding avx512 fails loudly instead of silently
/// downgrading).
SimdLevel resolveSimdLevel(SimdMode mode);

/// The kernel table for a level; level must be available.
const SimdKernels& simdKernels(SimdLevel level);

/// CodeML's loop nests as a kernel table (the `engine = codeml` baseline).
const SimdKernels& naiveKernels() noexcept;

namespace detail {
/// Implemented by kernels_avx2.cpp / kernels_avx512.cpp (the only TUs built
/// with wider ISA flags); each returns nullptr when its ISA was not
/// compiled in (non-x86 target or compiler without the flags).
const SimdKernels* avx2KernelTable() noexcept;
const SimdKernels* avx512KernelTable() noexcept;
}  // namespace detail

}  // namespace slim::linalg
