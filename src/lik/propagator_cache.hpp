#pragma once
// Persistent propagator storage that can outlive one likelihood evaluator.
//
// A shard holds built propagators keyed on (eigensystem, branch length).  A
// caller that runs evaluators one after another on the same spec (a refit
// at the same parameters, the NEB pass after a fit) may hand each the same
// shard and find its propagators warm.  The fit drivers do not: every
// task's evaluator makes a private shard that is freed with it, so nothing
// stays pinned once a task ends.
//
// Concurrency: a shard must be used by one evaluator at a time, so its
// internals need no locking.  Propagators are keyed on exact eigensystem
// identity and branch-length bits, so a warm shard changes *which* work is
// done but never the bits of any result.

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.hpp"

namespace slim::lik {

/// A persistent propagator store plus the spec fingerprint the stored
/// entries correspond to.  Owned via shared_ptr so it can outlive the
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

}  // namespace slim::lik
