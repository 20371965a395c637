#pragma once
// Runtime-pluggable compute backends, and the one place the engine
// chooses its arithmetic.
//
// A ComputeBackend bundles an identity (kind + name) and the `simd` label
// with one linalg::SimdKernels ops table (linalg/simd.hpp) covering the hot
// likelihood panels — the panel gemm and gemmNT, syrk, and the two fused
// Pi-sandwich reconstructions the propagator builder runs.  The evaluator
// calls resolveComputeBackend once at construction and routes every
// propagator build, panel product and gradient product through the table it
// returns.
//
// Backends:
//   * reference — the scalar kernel table, run through the same path as
//     every other backend.  The bit-exact oracle: each fused scalar entry
//     reproduces the unfused product + sandwich + clamp sequence bit for
//     bit.
//   * simd — the AVX2/AVX-512 tables, at whatever level `simd =` resolves
//     to.  Agrees with reference to <= 1e-10 relative on the
//     log-likelihood.
//   * blas — vendor CBLAS (OpenBLAS/MKL/...) behind the SLIM_WITH_BLAS
//     CMake option.  When the option is off the backend is "not compiled"
//     and an explicit `backend = blas` fails with a keyed error at
//     evaluator construction, mirroring resolveSimdLevel's contract.
//     Row-major dgemm/dsyrk with the Pi sandwich and clamp applied in a
//     follow-up pass (vendor kernels cannot fuse them).
//   * (GPU slot) — a future `cuda`/`hip` backend plugs in here: add a
//     BackendKind enumerator, a TU returning its kernel table behind a
//     CMake option (the backend_blas.cpp pattern), and extend
//     backendCompiled.  Because the interface is the same row-major panel
//     contract the engine already batches through, no evaluator change is
//     needed.  See docs/backends.md.
// The `engine = codeml` preset (linalg::Flavor::Naive) bypasses all three:
// it runs the naive table, CodeML's loop nests, and reports itself as
// `simd = scalar`, `backend = reference`.
//
// Resolution contract (resolveBackendKind): Auto picks Reference when the
// resolved SIMD level is Scalar and Simd otherwise.  Auto never picks Blas;
// vendor libraries reassociate sums, so leaving the deterministic default
// requires an explicit opt-in.

#include <string_view>

#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"

namespace slim::backend {

/// What the user asked for (`backend =` ctl key / LikelihoodOptions).
enum class BackendMode {
  Auto,       ///< Reference at scalar SIMD, Simd otherwise (pre-PR behavior).
  Reference,  ///< Force the scalar reference path (bit-exact oracle).
  Simd,       ///< Require the SIMD kernel table at the resolved `simd` level.
  Blas,       ///< Require vendor CBLAS; fails if not compiled in.
};

/// What resolution actually selected (recorded in reports).
enum class BackendKind {
  Reference,
  Simd,
  Blas,
};

const char* backendModeName(BackendMode m) noexcept;
const char* backendKindName(BackendKind k) noexcept;

/// Parse a ctl-file value ("auto", "reference", "simd", "blas").  Returns
/// false on unknown text (out untouched).
bool parseBackendMode(std::string_view text, BackendMode& out) noexcept;
/// Parse a resolved kind ("reference", "simd", "blas"); false on unknown.
bool parseBackendKind(std::string_view text, BackendKind& out) noexcept;

/// One resolved backend: identity and labels plus the kernel table the
/// evaluator calls.
/// The ops table obeys the linalg::SimdKernels row-determinism contract
/// (row i of each output depends only on the operands' row i, or on the full
/// inputs in a fixed accumulation order), which the engine's thread-count /
/// block-size bit-invariance rests on.  Vendor BLAS keeps the contract
/// per-call (one call -> one deterministic result for the whole panel) but
/// may reassociate within a row, hence the <= 1e-10 (not bit) lnL contract.
struct ComputeBackend {
  /// The `backend` label.
  BackendKind kind = BackendKind::Reference;
  const char* name = "reference";
  /// The `simd` label: the level `simd =` resolved to.  The ops table runs
  /// at this level only for BackendKind::Simd.
  linalg::SimdLevel simdLevel = linalg::SimdLevel::Scalar;
  linalg::SimdKernels ops{};
};

/// Whether this binary contains the backend (reference/simd: always — simd
/// falls back to the scalar table; blas: SLIM_WITH_BLAS builds only).
bool backendCompiled(BackendKind k) noexcept;

/// Resolve a requested mode against the already-resolved SIMD level.  Auto
/// picks Reference when `simdLevel` is Scalar and Simd otherwise.  An
/// explicit unavailable backend throws std::invalid_argument with a keyed
/// message (mirroring resolveSimdLevel), so a ctl file demanding blas on a
/// non-BLAS build fails loudly at evaluator construction.
BackendKind resolveBackendKind(BackendMode mode, linalg::SimdLevel simdLevel);

/// The backend descriptor for a resolved kind.  `simdLevel` is the `simd`
/// label and selects the kernel table for BackendKind::Simd.  The kind must
/// be compiled in (resolveBackendKind enforces this).
ComputeBackend computeBackend(BackendKind kind, linalg::SimdLevel simdLevel);

/// The engine's kernel choice: maps (flavor, `backend =`, `simd =`) to the
/// one table an evaluator runs and the two labels reports and checkpoint
/// hashes record.  Flavor::Naive returns the naive table labelled
/// `simd = scalar`, `backend = reference` and ignores both modes;
/// Flavor::Opt resolves the modes (resolveSimdLevel, then
/// resolveBackendKind), so an explicit request the host cannot run throws
/// std::invalid_argument.
ComputeBackend resolveComputeBackend(linalg::Flavor flavor,
                                     BackendMode backend,
                                     linalg::SimdMode simd);

namespace detail {
/// Implemented by backend_blas.cpp (the only TU that includes <cblas.h>);
/// returns nullptr when SLIM_WITH_BLAS was off, mirroring
/// linalg::detail::avx2KernelTable().
const linalg::SimdKernels* blasKernelTable() noexcept;
}  // namespace detail

}  // namespace slim::backend
