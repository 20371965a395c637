#pragma once
// Batch-first driver for Selectome-scale workloads: register N genes, then
// run every branch-site test with the H0/H1 fits (and the NEB site scans)
// fanned across a TaskScheduler as 2N (+N) independent tasks.
//
// Guarantees:
//  * runAll() is bit-identical to running each gene's
//    BranchSiteAnalysis::run() sequentially, for every worker count and
//    every ParallelPolicy — tasks share nothing mutable (per-task cache
//    shards, task-local RNGs) and results land in slots addressed by task
//    index, so the scheduling order cannot leak into the output.
//  * Engine counters are merged deterministically in gene order into
//    totals(), instead of being clobbered per-fit.
//
// Randomized starts stay reproducible under fan-out: with jitterSeedBase
// set, gene g draws from seed base + g — derived from the gene *index*, not
// from any execution order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/context.hpp"
#include "core/scheduler.hpp"

namespace slim::core {

class CheckpointManager;  // core/checkpoint.hpp

/// Identifies one registered gene (the index it was added at).
using GeneHandle = int;

struct BatchOptions {
  /// Per-gene fit defaults.  `fit.tuning` also drives the scheduler: its
  /// numThreads is the worker-pool size and its policy picks task-level vs
  /// pattern-level fan-out.
  FitOptions fit{};
  /// Non-zero: gene g's startJitterSeed becomes jitterSeedBase + g
  /// (scheduling-independent randomized starts).  Zero: every gene uses
  /// fit.startJitterSeed as-is.
  std::uint64_t jitterSeedBase = 0;
  /// Optional checkpoint coordinator (caller-owned, must outlive runAll).
  /// Fits recorded complete are skipped on resume; in-flight ones continue
  /// their recorded trajectory; every fit snapshots its optimizer state as
  /// it runs.  Task keys come from fitTaskKey(geneIndex, geneName, h).
  CheckpointManager* checkpoint = nullptr;
};

/// What the last runAll() did (for benches and reports).
struct BatchRunInfo {
  bool taskLevel = false;  ///< Fit phase fanned whole tasks across workers.
  int workers = 1;
  double seconds = 0;  ///< Wall clock of the whole runAll().
};

class BatchAnalysis {
 public:
  explicit BatchAnalysis(EngineKind engine, BatchOptions options = {});

  /// Register a gene (copies the tree).  The tree's #k marks are its branch
  /// classes; leaf labels must match the alignment's sequence names.
  GeneHandle addGene(const seqio::CodonAlignment& alignment,
                     const tree::Tree& tree);
  /// Same, sharing an already-parsed tree across genes (a genome scan on
  /// one species tree stores it once).
  GeneHandle addGene(const seqio::CodonAlignment& alignment,
                     std::shared_ptr<const tree::Tree> tree);
  /// Same, with per-gene fit options (must keep the batch's frequency
  /// model semantics: the context's pi is estimated from these options) and
  /// an optional stable name used in reports and checkpoint task keys
  /// (empty: "gene<index>").
  GeneHandle addGene(const seqio::CodonAlignment& alignment,
                     std::shared_ptr<const tree::Tree> tree,
                     FitOptions geneOptions, std::string name = {});

  std::size_t numGenes() const noexcept { return contexts_.size(); }
  const AnalysisContext& context(GeneHandle gene) const {
    return *contexts_.at(gene);
  }
  /// The resolved options gene `gene` runs with (including any seed derived
  /// from jitterSeedBase) — hand these to a standalone BranchSiteAnalysis
  /// to reproduce the gene's batch result exactly.
  const FitOptions& geneOptions(GeneHandle gene) const {
    return contexts_.at(gene)->options();
  }
  const std::string& geneName(GeneHandle gene) const {
    return names_.at(gene);
  }
  EngineKind engine() const noexcept { return engine_; }
  const BatchOptions& options() const noexcept { return options_; }

  /// Run the full H0-vs-H1 test for every registered gene; results are
  /// indexed by GeneHandle.  Repeatable; each call starts cold, since a
  /// task's propagator shard is freed with its evaluator.
  std::vector<PositiveSelectionTest> runAll();

  /// Aggregate engine counters of the last runAll(), merged in gene order
  /// (fits plus site scans).
  const lik::EvalCounters& totals() const noexcept { return totals_; }
  const BatchRunInfo& lastRun() const noexcept { return lastRun_; }

 private:
  FitOptions resolveGeneOptions(FitOptions base, GeneHandle gene) const;

  EngineKind engine_;
  BatchOptions options_;
  std::vector<std::shared_ptr<const AnalysisContext>> contexts_;
  std::vector<std::string> names_;
  lik::EvalCounters totals_;
  BatchRunInfo lastRun_;
};

}  // namespace slim::core
