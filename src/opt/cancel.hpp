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

/// Predicate that fires once `seconds` (finite, >= 0) of wall time have
/// elapsed from the moment this function is called (not from the first
/// poll).  Empty — never cancel — when that instant lies past the clock's
/// range: a plain duration_cast overflows its int64 nanoseconds above ~292
/// years, which is undefined behaviour and in practice a deadline in the
/// past.
inline CancelPredicate deadlineAfter(double seconds) {
  using Clock = std::chrono::steady_clock;
  const auto now = Clock::now();
  const double ticks = seconds * Clock::period::den / Clock::period::num;
  // A double below the double nearest the headroom is at most the headroom
  // itself, so the cast and the sum below stay in range.
  const auto headroom = (Clock::time_point::max() - now).count();
  if (!(ticks < static_cast<double>(headroom))) return {};
  const auto deadline = now + Clock::duration(static_cast<Clock::rep>(ticks));
  return [deadline] { return Clock::now() >= deadline; };
}

/// OR-composition; empty operands are dropped so the result stays empty
/// (never polled) when both are.
inline CancelPredicate combineCancel(CancelPredicate a, CancelPredicate b) {
  if (!a) return b;
  if (!b) return a;
  return [a = std::move(a), b = std::move(b)] { return a() || b(); };
}

}  // namespace slim::opt
