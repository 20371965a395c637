// Ablation A (DESIGN.md §5): the matrix-exponential kernels.
//
//   - Eq. 9 (gemm, ~2n^3) vs Eq. 10 (syrk, ~n^3) reconstruction on the
//     naive and scalar kernel tables: the paper's central claim, "saves
//     about half of the flops".  (The naive table has no symmetric kernel,
//     so its Eq. 10 row runs the full 2n^3 product, as CodeML would.)
//   - The gradient's dP^T build (Eq. 9 form, Transposed layout) per table.
//   - The symmetric eigendecomposition (once per omega class) and the Pade
//     oracle, for context on where time goes.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "expm/codon_eigen_system.hpp"
#include "expm/pade.hpp"
#include "gbench_main.hpp"
#include "linalg/diag.hpp"
#include "linalg/simd.hpp"
#include "model/codon_model.hpp"
#include "sim/evolver.hpp"
#include "sim/rng.hpp"

namespace {

using namespace slim;

struct Setup {
  std::vector<double> pi;
  linalg::Matrix s;
  expm::CodonEigenSystem es;

  Setup()
      : pi(makePi()),
        s(makeS()),
        es(s, pi) {}

  static std::vector<double> makePi() {
    sim::Rng rng(31);
    return sim::randomCodonFrequencies(61, 5, rng);
  }
  static linalg::Matrix makeS() {
    linalg::Matrix m(61, 61);
    model::buildExchangeability(bio::GeneticCode::universal(), 2.0, 0.4, m);
    return m;
  }
};

Setup& setup() {
  static Setup s;
  return s;
}

void reconstruct(benchmark::State& state, expm::ReconstructionPath path,
                 const linalg::SimdKernels& kern) {
  auto& s = setup();
  expm::ExpmWorkspace ws;
  linalg::Matrix p(61, 61);
  double t = 0.01;
  for (auto _ : state) {
    s.es.transitionMatrix(t, path, kern, ws, p);
    benchmark::DoNotOptimize(p.data());
    t += 1e-6;  // defeat any value caching
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Reconstruct_Gemm_Naive(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Gemm, linalg::naiveKernels());
}
void BM_Reconstruct_Syrk_Naive(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Syrk, linalg::naiveKernels());
}
void BM_Reconstruct_Gemm_ScalarFused(benchmark::State& state) {
  reconstruct(state, expm::ReconstructionPath::Gemm,
              linalg::simdKernels(linalg::SimdLevel::Scalar));
}
BENCHMARK(BM_Reconstruct_Gemm_Naive);
BENCHMARK(BM_Reconstruct_Syrk_Naive);
BENCHMARK(BM_Reconstruct_Gemm_ScalarFused);

// --- Eq. 10 reconstruction per kernel table (linalg/simd.hpp) -----------
//
// "Fused" runs transitionMatrix: the Pi sandwich and clamp are folded into
// the rank-update loop.  "Unfused" runs the same table's plain syrk
// followed by the separate scaleSandwich and clamp passes, isolating what
// fusion buys at the same ISA.  Levels the host cannot run are skipped.
void reconstructSimd(benchmark::State& state, linalg::SimdLevel level,
                     bool fused) {
  if (!linalg::simdLevelAvailable(level)) {
    state.SkipWithError("SIMD level unavailable on this host");
    return;
  }
  auto& s = setup();
  const auto& kern = linalg::simdKernels(level);
  expm::ExpmWorkspace ws;
  linalg::Matrix p(61, 61);
  double t = 0.01;
  if (fused) {
    for (auto _ : state) {
      s.es.transitionMatrix(t, expm::ReconstructionPath::Syrk, kern, ws, p);
      benchmark::DoNotOptimize(p.data());
      t += 1e-6;
    }
  } else {
    linalg::Matrix y(61, 61), z(61, 61);
    std::vector<double> expDiag(61);
    for (auto _ : state) {
      for (std::size_t i = 0; i < 61; ++i)
        expDiag[i] = std::exp(0.5 * s.es.eigenvalues()[i] * t);
      linalg::scaleCols(s.es.eigenvectors(), expDiag, y);
      kern.syrk(y.data(), z.data(), 61, 61);
      linalg::scaleSandwich(z, s.es.invSqrtPi(), s.es.sqrtPi(), p);
      for (std::size_t k = 0; k < p.size(); ++k)
        if (p.data()[k] < 0.0) p.data()[k] = 0.0;
      benchmark::DoNotOptimize(p.data());
      t += 1e-6;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Reconstruct_Syrk_ScalarUnfused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Scalar, false);
}
void BM_Reconstruct_Syrk_ScalarFused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Scalar, true);
}
void BM_Reconstruct_Syrk_Avx2Unfused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx2, false);
}
void BM_Reconstruct_Syrk_Avx2Fused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx2, true);
}
void BM_Reconstruct_Syrk_Avx512Unfused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx512, false);
}
void BM_Reconstruct_Syrk_Avx512Fused(benchmark::State& state) {
  reconstructSimd(state, linalg::SimdLevel::Avx512, true);
}
BENCHMARK(BM_Reconstruct_Syrk_ScalarUnfused);
BENCHMARK(BM_Reconstruct_Syrk_ScalarFused);
BENCHMARK(BM_Reconstruct_Syrk_Avx2Unfused);
BENCHMARK(BM_Reconstruct_Syrk_Avx2Fused);
BENCHMARK(BM_Reconstruct_Syrk_Avx512Unfused);
BENCHMARK(BM_Reconstruct_Syrk_Avx512Fused);

// The gradient's dP^T build per kernel table: derivativeMatrix through
// gemmNTSandwich, Transposed layout, clamp off — what every gradient sweep
// runs once per (branch, eigensystem).
void derivativeSimd(benchmark::State& state, linalg::SimdLevel level) {
  if (!linalg::simdLevelAvailable(level)) {
    state.SkipWithError("SIMD level unavailable on this host");
    return;
  }
  auto& s = setup();
  const auto& kern = linalg::simdKernels(level);
  expm::ExpmWorkspace ws;
  linalg::Matrix dT(61, 61);
  double t = 0.01;
  for (auto _ : state) {
    s.es.derivativeMatrix(t, kern, ws, dT, linalg::OutputLayout::Transposed);
    benchmark::DoNotOptimize(dT.data());
    t += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DerivativeMatrix_Scalar(benchmark::State& state) {
  derivativeSimd(state, linalg::SimdLevel::Scalar);
}
void BM_DerivativeMatrix_Avx2(benchmark::State& state) {
  derivativeSimd(state, linalg::SimdLevel::Avx2);
}
void BM_DerivativeMatrix_Avx512(benchmark::State& state) {
  derivativeSimd(state, linalg::SimdLevel::Avx512);
}
BENCHMARK(BM_DerivativeMatrix_Scalar);
BENCHMARK(BM_DerivativeMatrix_Avx2);
BENCHMARK(BM_DerivativeMatrix_Avx512);

void BM_Eigendecomposition(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    expm::CodonEigenSystem es(s.s, s.pi);
    benchmark::DoNotOptimize(es.eigenvalues()[0]);
  }
}
BENCHMARK(BM_Eigendecomposition);

void BM_PadeOracle(benchmark::State& state) {
  auto& s = setup();
  linalg::Matrix q(61, 61);
  model::buildRateMatrix(s.s, s.pi, q);
  for (std::size_t k = 0; k < q.size(); ++k) q.data()[k] *= 0.3;
  for (auto _ : state) {
    auto p = expm::expmPade(q);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_PadeOracle);

}  // namespace

int main(int argc, char** argv) {
  return slim::bench::runMicrobenchmarks(argc, argv);
}
