#pragma once
// Parsed-input directory of the analysis daemon: AnalysisContexts keyed by
// (alignment content hash, tree content hash, engine, frequency model,
// cleandata).  A second job on the same gene/tree skips parsing, pattern
// compression and frequency estimation.
//
// Correctness over cleverness:
//  * keys hash file *content*, not paths — a client regenerating gene.fasta
//    in place never gets a stale context;
//  * each job receives a withOptions() clone carrying the job's exact
//    FitOptions and its own empty propagator cache, so no state crosses
//    jobs (daemon == CLI bit-identity, counters included).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/context.hpp"
#include "support/thread_safety.hpp"

namespace slim::serve {

struct ContextCacheStats {
  std::uint64_t hits = 0;    ///< Jobs served an already-parsed context.
  std::uint64_t misses = 0;  ///< Cold builds (first sight of the inputs).
  std::size_t entries = 0;
};

class ContextCache {
 public:
  /// `maxEntries` bounds resident gene state; the least-recently-used entry
  /// is evicted beyond it.
  explicit ContextCache(std::size_t maxEntries = 16);

  /// Build or reuse the context for `seqfile`/`config.treefile` and hand out
  /// a clone with `fit` as its options.  File I/O and parsing errors
  /// propagate (std::runtime_error) — submit-time validation surfaces them
  /// as job failures.
  std::shared_ptr<const core::AnalysisContext> acquire(
      const std::string& seqfile, const core::Config& config,
      const core::FitOptions& fit);

  ContextCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t alignmentHash = 0;
    std::uint64_t treeHash = 0;
    core::EngineKind engine = core::EngineKind::Slim;
    model::CodonFrequencyModel frequencyModel =
        model::CodonFrequencyModel::F3x4;
    bool stopCodonsAsMissing = false;
    std::shared_ptr<const core::AnalysisContext> prototype;
  };

  const std::size_t maxEntries_;
  mutable support::Mutex mutex_;
  /// Least recently used first.
  std::vector<Entry> entries_ SLIM_GUARDED_BY(mutex_);
  ContextCacheStats stats_ SLIM_GUARDED_BY(mutex_);
};

}  // namespace slim::serve
