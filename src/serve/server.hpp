#pragma once
// The analysis daemon behind `slimcodemld`: a persistent server accepting
// control-file jobs of any kind over a local (UNIX-domain) stream socket,
// speaking slimcodeml-serve-v1 (serve/protocol.hpp, docs/protocol.md).
//
// Architecture:
//  * one accept thread (poll on the listening socket + a wake pipe), one
//    short-lived thread per connection, `workers` job threads;
//  * a priority job queue with admission control: submissions are parsed and
//    validated up-front (malformed ctl is rejected at submit, not at run),
//    bounded by maxQueued, with request lines bounded by maxRequestBytes;
//  * per-job cooperative cancellation and deadlines ride the optimizer's
//    CancelPredicate — a cancelled fit stops at an iteration boundary, which
//    is also a checkpoint snapshot boundary;
//  * parsed inputs stay resident across jobs in a ContextCache (a repeat
//    gene skips parsing; every job starts with its own propagator cache);
//  * with a state directory, the queue is journalled (atomic rewrite on
//    every mutation) and jobs submitted with "checkpoint":true snapshot
//    their optimizer state — SIGKILL + restart recovers them and resumes
//    bit-identically (PR 5 machinery);
//  * jobs run through the CLI's core::runConfig and writeJsonRunReport, so
//    a daemon job's report is bit-identical to the CLI run of the same ctl.
//
// The class is a library object (the `slimcodemld` binary and serve_test
// both drive it) — POSIX sockets only, matching the platforms CI builds.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/context_cache.hpp"
#include "serve/protocol.hpp"

namespace slim::serve {

enum class JobState { Queued, Running, Done, Failed, Cancelled };
const char* jobStateName(JobState state) noexcept;

struct ServerOptions {
  std::string socketPath;  ///< Required; a stale socket file is replaced.
  /// Empty: no persistence (submit with "checkpoint":true is refused).
  /// Otherwise: queue journal + per-job checkpoints + result files live
  /// here (created if missing).
  std::string stateDir;
  int workers = 2;               ///< Max concurrently running jobs.
  std::size_t maxQueued = 64;    ///< Admission bound on waiting jobs.
  std::size_t maxRequestBytes = kDefaultMaxRequestBytes;
  std::size_t contextCacheEntries = 16;
};

class AnalysisServer {
 public:
  /// Binds and listens on options.socketPath and, with a state directory,
  /// recovers the persisted queue: interrupted jobs re-queue (resuming from
  /// their checkpoint when they have one), finished ones keep serving their
  /// recorded results.  Throws std::runtime_error on socket errors.
  explicit AnalysisServer(ServerOptions options);
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Spawn the accept loop and the worker pool.
  void start();

  /// True once a `drain` request (or requestStop) asked the owner to shut
  /// down; the daemon main loop polls this.
  bool stopRequested() const noexcept;
  /// Ask the server to stop (signal-handler-safe owner side; the actual
  /// teardown happens in drainAndStop).
  void requestStop() noexcept;

  /// Graceful drain: stop admission, cooperatively cancel running fits
  /// (their checkpoints already hold the last completed iteration), requeue
  /// them as interrupted in the journal, persist everything, join all
  /// threads.  Idempotent.  Must not be called from a connection thread —
  /// the `drain` op only sets stopRequested().
  void drainAndStop();

  /// Test hook emulating SIGKILL: tear down threads *without* persisting
  /// any state change past the last journal write, leaving the state
  /// directory exactly as a killed process would.  Running fits are
  /// interrupted via the same cooperative stop (their on-disk checkpoint
  /// stays at the last persisted iteration).
  void abortStop();

  const std::string& socketPath() const noexcept;
  ContextCacheStats cacheStats() const;

 private:
  struct Job;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace slim::serve
