#pragma once
// Kernel flavor: which family of kernel tables an engine preset runs.
//
// The SlimCodeML paper compares CodeML's hand-rolled C loops against tuned
// BLAS kernels (GotoBLAS2).  The flavor is that comparison's switch:
//
//   Flavor::Naive — the `naive` kernel table (linalg/simd.hpp): faithful
//                   transcriptions of the PAML loop nests.
//   Flavor::Opt   — the tuned tables (scalar / avx2 / avx512 / blas), chosen
//                   by the `simd =` and `backend =` keys.
//
// backend::resolveComputeBackend is the one function that reads it; every
// linalg, expm and lik entry point takes the resolved table instead.

namespace slim::linalg {

enum class Flavor {
  Naive,  ///< CodeML-style reference loops.
  Opt,    ///< SlimCodeML-style optimized kernels.
};

}  // namespace slim::linalg
