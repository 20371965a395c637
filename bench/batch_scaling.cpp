// Task-level vs pattern-level parallelism on a multi-gene batch, end-to-end
// through core::BatchAnalysis::runAll() (the full H0/H1 fits + site scans
// of an 8-gene mini-Selectome).
//
// Expected shape: with tasks >= workers, task-level fan-out wins — whole
// fits are embarrassingly parallel and pay zero per-branch synchronization,
// while pattern-level splits each (small) sweep and synchronizes per
// evaluation.  On a 1-core host both collapse to the sequential path.
//
// Emit machine-readable numbers for tracking with
//   ./batch_scaling --benchmark_format=json > BENCH_batch_scaling.json

#include <benchmark/benchmark.h>

#include "core/batch.hpp"
#include "gbench_main.hpp"
#include "sim/datasets.hpp"

namespace {

using namespace slim;

struct Gene {
  seqio::CodonAlignment codons;
  std::shared_ptr<const tree::Tree> tree;
};

const std::vector<Gene>& genes() {
  static const std::vector<Gene> genes = [] {
    const auto& gc = bio::GeneticCode::universal();
    std::vector<Gene> out;
    for (int g = 0; g < 8; ++g) {
      sim::Rng rng(4242 + 100 * g);
      auto tree = sim::yuleTree(6, rng);
      sim::pickForegroundBranch(tree, rng);
      const auto pi = sim::randomCodonFrequencies(gc.numSense(), 5, rng);
      model::BranchSiteParams truth;
      truth.kappa = 2.0;
      truth.omega0 = 0.1;
      truth.omega2 = g % 2 == 0 ? 6.0 : 1.0;
      truth.p0 = 0.4;
      truth.p1 = 0.4;
      const auto simOut = sim::evolveBranchSite(
          gc, tree, truth,
          g % 2 == 0 ? model::Hypothesis::H1 : model::Hypothesis::H0,
          /*numCodons=*/60, pi, rng);
      out.push_back({seqio::encodeCodons(simOut.alignment, gc),
                     std::make_shared<const tree::Tree>(std::move(tree))});
    }
    return out;
  }();
  return genes;
}

// Args: (policy: 0 task / 1 pattern, workers).
void BM_BatchRunAll(benchmark::State& state) {
  const auto policy = state.range(0) == 0 ? core::ParallelPolicy::TaskLevel
                                          : core::ParallelPolicy::PatternLevel;
  const int workers = static_cast<int>(state.range(1));

  core::BatchOptions options;
  options.fit.bfgs.maxIterations = 4;
  options.fit.tuning.numThreads = workers;
  options.fit.tuning.policy = policy;
  options.fit.tuning.cachePropagators = 1;

  double lnLSum = 0;
  std::int64_t evaluations = 0, cacheHits = 0;
  for (auto _ : state) {
    // A fresh batch per iteration: cold contexts and cold shards, so each
    // measurement covers the whole runAll the CLI would do.
    core::BatchAnalysis batch(core::EngineKind::Slim, options);
    for (const auto& gene : genes()) batch.addGene(gene.codons, gene.tree);
    const auto tests = batch.runAll();
    for (const auto& t : tests) lnLSum += t.h0.lnL + t.h1.lnL;
    evaluations += batch.totals().evaluations;
    cacheHits += batch.totals().propagatorCacheHits;
    benchmark::DoNotOptimize(tests);
  }
  benchmark::DoNotOptimize(lnLSum);
  state.SetLabel(policy == core::ParallelPolicy::TaskLevel ? "task-level"
                                                           : "pattern-level");
  state.counters["genes"] = static_cast<double>(genes().size());
  state.counters["workers"] = workers;
  state.counters["evals_per_run"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kAvgIterations);
  state.counters["cache_hits_per_run"] = benchmark::Counter(
      static_cast<double>(cacheHits), benchmark::Counter::kAvgIterations);
}

}  // namespace

BENCHMARK(BM_BatchRunAll)
    ->ArgNames({"policy", "workers"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

int main(int argc, char** argv) {
  return slim::bench::runMicrobenchmarks(argc, argv);
}
