#pragma once
// Cooperative cancellation for the optimization drivers.
//
// A CancelPredicate is polled by minimizeBfgs at iteration boundaries — the
// same points where checkpoint snapshots are taken — so a
// cancelled fit always stops at a state the checkpoint machinery has (or
// could have) persisted, and a later resume continues the identical
// trajectory.  Cancellation can only truncate a trajectory, never alter it,
// which is why the predicate is deliberately *not* part of
// checkpointConfigHash.
//
// Sources that compose onto one predicate: a client cancel request (daemon),
// a job deadline (daemon or the `timeoutSec` ctl key), SIGTERM/SIGINT (CLI),
// and daemon drain.

#include <chrono>
#include <functional>
#include <utility>

namespace slim::opt {

/// Returns true when the fit should stop.  Must be cheap and thread-safe:
/// it is polled once per optimizer iteration, possibly from several worker
/// threads at once.  An empty predicate means "never cancel".
using CancelPredicate = std::function<bool()>;

/// Predicate that fires once `seconds` of wall time have elapsed from the
/// moment this function is called (not from the first poll).
inline CancelPredicate deadlineAfter(double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  return [deadline] { return std::chrono::steady_clock::now() >= deadline; };
}

/// OR-composition; empty operands are dropped so the result stays empty
/// (never polled) when both are.
inline CancelPredicate combineCancel(CancelPredicate a, CancelPredicate b) {
  if (!a) return b;
  if (!b) return a;
  return [a = std::move(a), b = std::move(b)] { return a() || b(); };
}

}  // namespace slim::opt
