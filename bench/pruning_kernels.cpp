// Ablation B (DESIGN.md §5): CPV propagation strategies, end-to-end through
// BranchSiteLikelihood::logLikelihood at several alignment lengths, on the
// slim preset's kernel table.
//
//   per-site-gemv   — CodeML (one matrix x vector product per site pattern,
//                     run as the panel product W P^T)
//   bundled-gemm    — SlimCodeML's BLAS-3 bundling (Sec. III-B)
//
// Expected shape: bundled-gemm wins, by more at large pattern counts.

#include <benchmark/benchmark.h>

#include "gbench_main.hpp"
#include "lik/branch_site_likelihood.hpp"
#include "model/frequencies.hpp"
#include "sim/datasets.hpp"

namespace {

using namespace slim;

struct Case {
  seqio::CodonAlignment ca;
  seqio::SitePatterns sp;
  std::vector<double> pi;
  tree::Tree tree;
};

const Case& getCase(int numCodons) {
  static std::map<int, Case> cases;
  auto it = cases.find(numCodons);
  if (it == cases.end()) {
    sim::Rng rng(17);
    auto tree = sim::yuleTree(8, rng);
    sim::pickForegroundBranch(tree, rng);
    const auto& gc = bio::GeneticCode::universal();
    const auto piGen = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
    const auto simOut =
        sim::evolveBranchSite(gc, tree, sim::defaultSimulationParams(),
                              model::Hypothesis::H1, numCodons, piGen, rng);
    Case c;
    c.ca = seqio::encodeCodons(simOut.alignment, gc);
    c.sp = seqio::compressPatterns(c.ca);
    c.pi =
        model::estimateCodonFrequencies(c.ca, model::CodonFrequencyModel::F3x4);
    c.tree = std::move(tree);
    it = cases.emplace(numCodons, std::move(c)).first;
  }
  return it->second;
}

void evaluate(benchmark::State& state, lik::PropagationStrategy strategy) {
  const auto& c = getCase(static_cast<int>(state.range(0)));
  lik::LikelihoodOptions opts = lik::slimOptions();
  opts.propagation = strategy;
  lik::BranchSiteLikelihood eval(c.ca, c.sp, c.pi, c.tree,
                                 model::Hypothesis::H1, opts);
  const auto params = sim::defaultSimulationParams();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.logLikelihood(params));
  }
  state.counters["patterns"] =
      static_cast<double>(c.sp.numPatterns());
}

void BM_PerSiteGemv(benchmark::State& state) {
  evaluate(state, lik::PropagationStrategy::PerSiteGemv);
}
void BM_BundledGemm(benchmark::State& state) {
  evaluate(state, lik::PropagationStrategy::BundledGemm);
}

BENCHMARK(BM_PerSiteGemv)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_BundledGemm)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  return slim::bench::runMicrobenchmarks(argc, argv);
}
