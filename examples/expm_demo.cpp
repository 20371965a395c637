// Matrix-exponential demo: walks through the 5-step SlimCodeML pipeline of
// Sec. III-A on a real 61x61 codon matrix, shows that the Eq. 9 and Eq. 10
// reconstructions agree with each other and with the Pade oracle, and times
// the two reconstruction paths (the paper's headline flop saving) on the
// host's widest kernel table.
//
// Usage: expm_demo

#include <chrono>
#include <iomanip>
#include <iostream>

#include "expm/codon_eigen_system.hpp"
#include "expm/pade.hpp"
#include "linalg/simd.hpp"
#include "model/codon_model.hpp"
#include "sim/rng.hpp"
#include "sim/evolver.hpp"

int main() {
  using namespace slim;
  using Clock = std::chrono::steady_clock;
  const auto& gc = bio::GeneticCode::universal();
  const int n = gc.numSense();

  sim::Rng rng(123);
  const auto pi = sim::randomCodonFrequencies(n, 5, rng);
  linalg::Matrix s(n, n);
  model::buildExchangeability(gc, /*kappa=*/2.0, /*omega=*/0.4, s);

  std::cout << "Step 1-2: symmetrize A = Pi^{1/2} S Pi^{1/2} and "
               "eigendecompose (" << n << "x" << n << ")\n";
  const auto t0 = Clock::now();
  const expm::CodonEigenSystem es(s, pi);
  std::cout << "  eigendecomposition: "
            << std::chrono::duration<double, std::milli>(Clock::now() - t0)
                   .count()
            << " ms; lambda_min = " << es.eigenvalues()[0]
            << ", lambda_max = " << es.eigenvalues()[n - 1] << "\n\n";

  const double t = 0.3;
  const auto& kern = linalg::simdKernels(linalg::detectSimdLevel());
  expm::ExpmWorkspace ws;
  linalg::Matrix pGemm(n, n), pSyrk(n, n);

  std::cout << "Steps 3-5 for t = " << t << " (" << kern.name
            << " kernel table):\n";
  es.transitionMatrix(t, expm::ReconstructionPath::Gemm, kern, ws, pGemm);
  es.transitionMatrix(t, expm::ReconstructionPath::Syrk, kern, ws, pSyrk);
  std::cout << "  max |P_gemm - P_syrk|           = "
            << maxAbsDiff(pGemm, pSyrk) << '\n';

  linalg::Matrix q(n, n);
  model::buildRateMatrix(s, pi, q);
  for (std::size_t k = 0; k < q.size(); ++k) q.data()[k] *= t;
  std::cout << "  max |P_syrk - Pade oracle|      = "
            << maxAbsDiff(pSyrk, expm::expmPade(q)) << "\n\n";

  // Timing: Eq. 9 (2n^3 gemm) vs Eq. 10 (n^3 syrk), many branch lengths as
  // in one likelihood evaluation over a large tree.
  const int reps = 400;
  auto timePath = [&](expm::ReconstructionPath path) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r)
      es.transitionMatrix(0.01 + 0.001 * r, path, kern, ws, pGemm);
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const double msGemm = timePath(expm::ReconstructionPath::Gemm);
  const double msSyrk = timePath(expm::ReconstructionPath::Syrk);
  std::cout << "Reconstruction timing over " << reps << " branch lengths:\n"
            << "  Eq. 9  (gemm, ~2n^3 flops): " << std::setprecision(4)
            << msGemm << " ms\n"
            << "  Eq. 10 (syrk, ~n^3 flops):  " << msSyrk << " ms\n"
            << "  speedup: " << msGemm / msSyrk << "x\n";
  return 0;
}
