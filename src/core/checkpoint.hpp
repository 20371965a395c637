#pragma once
// Checkpoint/restart for long optimizations.
//
// SlimCodeML's target workload — thousands of H0/H1 branch-site fits on
// preemptible grid infrastructure (gcodeml's operating regime, PAPERS.md) —
// makes a killed `slimcodeml_main` routine, not exceptional.  This module
// persists enough state to continue, not restart, interrupted work:
//
//   * core::Checkpoint is the versioned on-disk format: a line-oriented,
//     self-describing text file whose doubles are C99 hex-float literals
//     ("%a"), so every value round-trips *bit-exactly*.  It holds, per fit
//     task, either the completed FitResult (resume skips the task outright)
//     or the in-flight opt::BfgsState (resume continues the recorded
//     trajectory — bit-identical to the uninterrupted run, because the
//     snapshot is the optimizer's entire state and the likelihood engine is
//     deterministic in its input bits).
//   * A config hash binds a checkpoint to the run configuration that
//     produced it.  Everything that shapes the optimization *trajectory*
//     (engine, model, initial values, seeds, optimizer settings, gradient
//     mode, resolved SIMD level, input files) is hashed; knobs proven
//     bit-neutral (threads, blockSize, cachePropagators, parallel policy)
//     are deliberately excluded, so a fit checkpointed on 1 core resumes on
//     32.  Version or hash mismatches refuse to resume with a keyed
//     ConfigError instead of silently computing garbage.
//   * CheckpointManager coordinates concurrent fit tasks (the batch
//     scheduler's fan-out): it owns the in-memory Checkpoint behind a
//     mutex, throttles persistence to one write per checkpointEverySec, and
//     every write is atomic (temp file + fsync + rename via
//     support::writeFileAtomic) — a SIGKILL at any instant leaves either
//     the previous or the new checkpoint on disk, never a truncated one.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/context.hpp"
#include "opt/checkpoint.hpp"
#include "support/thread_safety.hpp"

namespace slim::core {

struct Config;  // core/config.hpp

/// Exact-bit double <-> text: C99 hex-float ("0x1.91eb851eb851fp+1"; also
/// "inf"/"nan").  parseHexDouble throws ConfigError on malformed text.
std::string hexDouble(double v);
double parseHexDouble(std::string_view text, const std::string& context);

/// The in-memory image of a checkpoint file.
struct Checkpoint {
  static constexpr int kVersion = 1;

  std::uint64_t configHash = 0;
  /// Finished fits by task key ("g<index>:<gene>/<H0|H1>"); loading one
  /// skips the fit entirely.  Engine counters and wall time are not
  /// persisted — they describe work done by the process that did it.
  std::map<std::string, FitResult> completed;
  /// Mid-fit optimizer snapshots by task key; loading one continues the
  /// trajectory from the recorded iteration.  A key lives in at most one of
  /// the two maps.
  std::map<std::string, opt::BfgsState> inFlight;

  std::string serialize() const;
  /// Inverse of serialize.  Malformed or truncated text, an unknown format
  /// version, or an unknown field throws ConfigError naming `origin`, the
  /// offending line and the offending key.
  static Checkpoint parse(std::string_view text, const std::string& origin);

  static Checkpoint load(const std::string& path);
  void save(const std::string& path) const;  ///< Atomic (temp+fsync+rename).
};

/// Hash of everything that must match for a checkpointed trajectory to be
/// resumable under `config` (see the header comment for what is included
/// and what is deliberately not).  Input files are hashed by path *and
/// content* — an alignment regenerated in place between crash and resume
/// invalidates the checkpoint.  `simd = auto` hashes the level the mode
/// *resolves to on this host*, so resuming on a machine with different
/// vector units refuses loudly rather than continuing with different
/// arithmetic.
std::uint64_t checkpointConfigHash(const Config& config);

/// Thread-safe coordinator between a running analysis and its checkpoint
/// file.  One manager serves all fit tasks of a run; fitHypothesis gets its
/// per-task hooks from here (see FitCheckpointHooks in core/context.hpp).
class CheckpointManager {
 public:
  /// Fresh run: checkpoints go to `path` (first write creates/overwrites).
  /// everySeconds <= 0 persists on every optimizer iteration.
  CheckpointManager(std::string path, double everySeconds,
                    std::uint64_t configHash);

  /// `--resume`: when `path` exists, load it — format version and config
  /// hash must match or a keyed ConfigError is thrown; when it does not
  /// exist, fall back to a fresh run (so a crash-looped job can always be
  /// launched with --resume).
  static std::unique_ptr<CheckpointManager> open(std::string path,
                                                 double everySeconds,
                                                 std::uint64_t configHash,
                                                 bool resume);

  /// The completed fit recorded for `key`, with resume provenance filled in
  /// (resumedFrom = path(), iterationsReplayed = its iteration count).
  std::optional<FitResult> completedFit(const std::string& key) const;

  /// The in-flight optimizer state recorded for `key`.
  std::optional<opt::BfgsState> inFlightState(const std::string& key) const;

  /// Checkpoint sink for fit task `key`: records each snapshot and persists
  /// the whole checkpoint when the throttle allows.  Safe to call from
  /// concurrently running tasks.
  opt::BfgsCheckpointSink fitSink(const std::string& key);

  /// Record a finished fit (dropping any in-flight state for `key`) and
  /// persist immediately — completion must never be lost to the throttle.
  void recordCompleted(const std::string& key, const FitResult& result);

  /// Persist the current state unconditionally.
  void flush();

  const std::string& path() const noexcept { return path_; }
  /// True when open() actually loaded state from an existing file.
  bool resumedFromFile() const noexcept { return resumed_; }

 private:
  /// One serialized checkpoint image plus its position in the write order.
  /// Persistence is split in two so each half is annotatable: snapshotLocked
  /// serializes under the data mutex, writeSnapshot does the disk I/O
  /// outside it — concurrently fitting tasks must not stall behind an fsync.
  struct Snapshot {
    std::string payload;
    std::uint64_t seq = 0;
  };

  /// Serialize the current state, stamp the write throttle, and take the
  /// next sequence number.  Caller holds mutex_.
  Snapshot snapshotLocked() SLIM_REQUIRES(mutex_);

  /// Atomically write `snap` to path_ unless a newer image already landed
  /// (the sequence number keeps a slow writer from publishing an older image
  /// over a newer one).  Must be called with mutex_ released.
  void writeSnapshot(const Snapshot& snap) SLIM_EXCLUDES(mutex_);

  std::string path_;
  double everySeconds_;
  bool resumed_ = false;
  mutable support::Mutex mutex_;
  Checkpoint data_ SLIM_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point lastWrite_ SLIM_GUARDED_BY(mutex_);
  bool wroteOnce_ SLIM_GUARDED_BY(mutex_) = false;
  std::uint64_t sequence_ SLIM_GUARDED_BY(mutex_) = 0;
  /// Serializes file writes; never held together with mutex_ (snapshot
  /// under mutex_, release, then write under writeMutex_).
  support::Mutex writeMutex_;
  std::uint64_t writtenSequence_ SLIM_GUARDED_BY(writeMutex_) = 0;
};

/// Canonical checkpoint key of one fit task.  The gene index pins identity
/// even when two input files share a stem ("a.fasta" and "a.phy"); indices
/// are stable because batch directories are enumerated in sorted order.
/// Control characters in the name are replaced with '_' so the key can
/// never corrupt the line-oriented file format.
std::string fitTaskKey(int geneIndex, std::string_view geneName,
                       model::Hypothesis hypothesis);

}  // namespace slim::core
