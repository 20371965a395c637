#pragma once
// Persistent propagator storage shared *across* likelihood evaluators.
//
// PR 1's propagator cache lived inside one BranchSiteLikelihood, so its
// lifetime was one evaluator: the NEB posterior pass after an H1 fit, or a
// refit at the same parameters, rebuilt every propagator from scratch.  This
// module lifts the cache out into a shard object a core::AnalysisContext can
// lease to tasks, so the warm state survives evaluator teardown.
//
// Concurrency model (per-task sharding): a shard is exclusive to one running
// task at a time — the H0 fit, the H1 fit and the subsequent site scan of a
// gene each address their own slot in the SharedPropagatorCache directory,
// and only the directory itself is mutex-guarded.  Shard internals therefore
// need no locking, and because propagators are keyed on exact eigensystem
// identity and branch-length bits, a warm shard changes *which* work is done
// but never the bits of any result.

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.hpp"
#include "support/thread_safety.hpp"

namespace slim::lik {

/// One task's persistent propagator store plus the spec fingerprint the
/// stored entries correspond to.  Owned via shared_ptr so it can outlive the
/// evaluator that filled it (the whole point of sharing).
struct PropagatorCacheShard {
  /// Key: eigensystem identity (index into the evaluator's per-spec
  /// eigensystem table — stable while the fingerprint below matches) plus
  /// the branch length's exact bit pattern.
  struct Key {
    int eigen = 0;
    std::uint64_t tBits = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.tBits * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<std::uint64_t>(k.eigen) + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  /// Entry count at which the store is flushed (each entry is an n x n
  /// matrix, ~30 KB for n = 61).
  static constexpr std::size_t kCapacity = 2048;

  std::unordered_map<Key, linalg::Matrix, KeyHash> entries;
  /// Set when kCapacity is reached mid-evaluation; entries inserted
  /// during an evaluation may already be referenced by the sweep, so the
  /// flush is deferred to the start of the next one.
  bool flushNextEval = false;
  /// Fingerprint of the MixtureSpec the entries were built against.  Every
  /// stored propagator is derived deterministically from (specScaledS, pi,
  /// branch length), so any evaluator presenting the same fingerprint may
  /// reuse the entries bit for bit.
  std::vector<double> specOmegas;
  std::vector<linalg::Matrix> specScaledS;
  /// Name of the kernel table that built the entries (mirroring how
  /// checkpointConfigHash pins the resolved kernels).  Different tables are
  /// only <= 1e-10 close, not bit-equal, so a shard warmed by one table must
  /// never serve another: an evaluator presenting a different name flushes
  /// the entries (prepareEigenSystems), exactly as a spec change does.
  /// Empty until an evaluator stamps it; a virgin shard matches any
  /// evaluator (there is nothing stale to serve).
  std::string_view builtKernels;
};

/// Directory of cache shards held by an analysis context.  shard() is safe
/// to call from concurrent tasks (mutex-guarded, lazily creating); each
/// returned shard must be used by at most one task at a time.
class SharedPropagatorCache {
 public:
  std::shared_ptr<PropagatorCacheShard> shard(int slot) {
    support::MutexLock lock(mutex_);
    auto& s = shards_[slot];
    if (!s) s = std::make_shared<PropagatorCacheShard>();
    return s;
  }

  std::size_t numShards() const {
    support::MutexLock lock(mutex_);
    return shards_.size();
  }

  /// Total cached propagators across shards (diagnostics only; racy against
  /// a concurrently-filling task in the benign sense of a stale count).
  std::size_t totalEntries() const {
    support::MutexLock lock(mutex_);
    std::size_t n = 0;
    // Unordered iteration is fine here: addition is commutative, and the
    // count never feeds a reduction or report.
    // slim-lint: allow(determinism)
    for (const auto& [slot, s] : shards_) n += s->entries.size();
    return n;
  }

 private:
  mutable support::Mutex mutex_;
  std::unordered_map<int, std::shared_ptr<PropagatorCacheShard>> shards_
      SLIM_GUARDED_BY(mutex_);
};

}  // namespace slim::lik
