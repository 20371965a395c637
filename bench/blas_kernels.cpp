// Ablation C (DESIGN.md §5): naive (CodeML-style) vs optimized BLAS-subset
// kernels across sizes around the codon dimension n = 61.
//
// This isolates the "use tuned kernels" component of the paper's speedup
// (its rules of thumb: "Use BLAS...", "Exploit matrix properties...").  The
// second argument picks the kernel table: 0 = naive (CodeML's loop nests),
// 1 = scalar (the tuned loops compiled for the generic target).

#include <benchmark/benchmark.h>

#include <string>

#include "backend/compute_backend.hpp"
#include "gbench_main.hpp"
#include "linalg/blas3.hpp"
#include "linalg/simd.hpp"
#include "test_support.hpp"

namespace {

using namespace slim;
using linalg::Matrix;

const linalg::SimdKernels& tableForArg(std::int64_t arg) {
  return arg ? linalg::simdKernels(linalg::SimdLevel::Scalar)
             : linalg::naiveKernels();
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& kern = tableForArg(state.range(1));
  const Matrix a = bench::randomMatrix(n, n, 1);
  const Matrix b = bench::randomMatrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm(kern, a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(kern.name);
}

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& kern = tableForArg(state.range(1));
  const Matrix a = bench::randomMatrix(n, n, 3);
  const Matrix b = bench::randomMatrix(n, n, 4);
  Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemmNT(kern, a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(kern.name);
}

void BM_Syrk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& kern = tableForArg(state.range(1));
  const Matrix y = bench::randomMatrix(n, n, 5);
  Matrix c(n, n);
  for (auto _ : state) {
    kern.syrk(y.data(), c.data(), n, n);
    benchmark::DoNotOptimize(c.data());
  }
  // Effective flops of the full product; the scalar syrk does half of this.
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(kern.name);
}

void sizesAndTables(benchmark::internal::Benchmark* b) {
  for (int n : {61, 122, 244})
    for (int table : {0, 1}) b->Args({n, table});
}

BENCHMARK(BM_Gemm)->Apply(sizesAndTables);
BENCHMARK(BM_GemmNT)->Apply(sizesAndTables);
BENCHMARK(BM_Syrk)->Apply(sizesAndTables);

// --- The sweeps' panel product, per SIMD level ---------------------------
//
// One pattern block through one branch: a 64 x 61 panel (the default
// blockSize) times a 61 x 61 propagator, the shape of every internal-branch
// product of the down pass and of the gradient's dP and outside products.
// One row per level (BM_PanelGemm/scalar, /avx2, /avx512), so an AVX-512
// host times the AVX2 kernel too; a level the host cannot run skips.
void BM_PanelGemm(benchmark::State& state, linalg::SimdLevel level) {
  if (!linalg::simdLevelAvailable(level)) {
    state.SkipWithError("SIMD level unavailable on this host");
    return;
  }
  const auto& kern = linalg::simdKernels(level);
  constexpr std::size_t kRows = 64, kN = 61;
  const Matrix w = bench::randomMatrix(kRows, kN, 6);
  const Matrix pT = bench::randomMatrix(kN, kN, 7);
  Matrix out(kRows, kN);
  for (auto _ : state) {
    linalg::gemm(kern, w.view(), pT.view(), out.view());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRows * kN * kN);
  state.SetLabel(kern.name);
}

[[maybe_unused]] const bool kPanelGemmRegistered = [] {
  for (auto level : {linalg::SimdLevel::Scalar, linalg::SimdLevel::Avx2,
                     linalg::SimdLevel::Avx512})
    benchmark::RegisterBenchmark(
        (std::string("BM_PanelGemm/") + linalg::simdLevelName(level)).c_str(),
        BM_PanelGemm, level);
  return true;
}();

// --- Compute-backend dimension (src/backend/) ---------------------------
//
// The same three hot panels through each runtime-pluggable backend's kernel
// table: reference (scalar oracle), simd (best available ISA), blas (vendor
// CBLAS, only in -DSLIM_WITH_BLAS=ON builds).  Unavailable backends skip.
backend::BackendKind kindForArg(int arg) {
  switch (arg) {
    case 1: return backend::BackendKind::Simd;
    case 2: return backend::BackendKind::Blas;
    default: return backend::BackendKind::Reference;
  }
}

bool skipUnavailable(benchmark::State& state, backend::BackendKind kind) {
  if (backend::backendCompiled(kind)) return false;
  state.SkipWithError("backend unavailable in this build");
  return true;
}

void BM_BackendGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = kindForArg(static_cast<int>(state.range(1)));
  if (skipUnavailable(state, kind)) return;
  const auto be = backend::computeBackend(kind, linalg::detectSimdLevel());
  const Matrix a = bench::randomMatrix(n, n, 1);
  const Matrix b = bench::randomMatrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    be.ops.gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(be.name);
}

void BM_BackendGemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = kindForArg(static_cast<int>(state.range(1)));
  if (skipUnavailable(state, kind)) return;
  const auto be = backend::computeBackend(kind, linalg::detectSimdLevel());
  const Matrix a = bench::randomMatrix(n, n, 3);
  const Matrix b = bench::randomMatrix(n, n, 4);
  Matrix c(n, n);
  for (auto _ : state) {
    be.ops.gemmNT(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(be.name);
}

void BM_BackendSyrk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = kindForArg(static_cast<int>(state.range(1)));
  if (skipUnavailable(state, kind)) return;
  const auto be = backend::computeBackend(kind, linalg::detectSimdLevel());
  const Matrix y = bench::randomMatrix(n, n, 5);
  Matrix c(n, n);
  for (auto _ : state) {
    be.ops.syrk(y.data(), c.data(), n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(be.name);
}

void sizesAndBackends(benchmark::internal::Benchmark* b) {
  for (int n : {61, 122, 244})
    for (int kind : {0, 1, 2}) b->Args({n, kind});
}

BENCHMARK(BM_BackendGemm)->Apply(sizesAndBackends);
BENCHMARK(BM_BackendGemmNT)->Apply(sizesAndBackends);
BENCHMARK(BM_BackendSyrk)->Apply(sizesAndBackends);

}  // namespace

int main(int argc, char** argv) {
  return slim::bench::runMicrobenchmarks(argc, argv);
}
