#pragma once
// Minimal persistent thread pool for the pattern-blocked likelihood engine.
//
// The pool runs index-based task sets (`parallelFor`): tasks are pulled from
// a shared atomic counter (dynamic chunked scheduling), and the calling
// thread participates as worker 0, so a pool of size 1 degenerates to a
// plain serial loop with no synchronization.  Each task receives its task
// index and the executing worker's index; callers that need mutable state
// give each worker its own workspace slot, so no locking is required inside
// tasks and — because results land in slots addressed by *task* index —
// outputs are identical for any thread count.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_safety.hpp"

namespace slim::support {

/// Map a requested thread count onto an actual one: 0 means "use the
/// hardware concurrency", anything else is clamped below by 1.
inline int resolveThreadCount(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

class ThreadPool {
 public:
  /// Spawns numThreads - 1 workers; the thread calling parallelFor is the
  /// pool's worker 0.  numThreads < 1 is treated as 1.  Throws, with no
  /// worker left running, when the host cannot start them all.
  explicit ThreadPool(int numThreads) {
    const int n = numThreads < 1 ? 1 : numThreads;
    workers_.reserve(n - 1);
    try {
      for (int t = 1; t < n; ++t)
        workers_.emplace_back([this, t] { workerLoop(t); });
    } catch (...) {
      abandonStart(n);
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { stopWorkers(); }

  int numThreads() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Run fn(task, worker) for every task in [0, numTasks).  Blocks until all
  /// tasks have completed; the first exception thrown by any task is
  /// rethrown here (remaining tasks still run to completion).
  void parallelFor(int numTasks, const std::function<void(int, int)>& fn) {
    if (numTasks <= 0) return;
    if (workers_.empty()) {
      for (int i = 0; i < numTasks; ++i) fn(i, 0);
      return;
    }
    {
      MutexLock lock(mutex_);
      fn_ = &fn;
      numTasks_ = numTasks;
      nextTask_.store(0, std::memory_order_relaxed);
      pendingWorkers_ = static_cast<int>(workers_.size());
      ++generation_;
    }
    wake_.notifyAll();
    runTasks(0);
    MutexLock lock(mutex_);
    drained_.wait(lock, [this]() SLIM_REQUIRES(mutex_) {
      return pendingWorkers_ == 0;
    });
    fn_ = nullptr;
    if (firstError_) {
      std::exception_ptr e = firstError_;
      firstError_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  /// The constructor's failure path (support/parallel.cpp).
  [[noreturn]] void abandonStart(int numThreads);

  void stopWorkers() {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    wake_.notifyAll();
    for (auto& w : workers_) w.join();
  }

  void workerLoop(int worker) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        MutexLock lock(mutex_);
        wake_.wait(lock, [this, &seen]() SLIM_REQUIRES(mutex_) {
          return stop_ || generation_ != seen;
        });
        if (stop_) return;
        seen = generation_;
      }
      runTasks(worker);
      {
        MutexLock lock(mutex_);
        if (--pendingWorkers_ == 0) drained_.notifyOne();
      }
    }
  }

  void runTasks(int worker) {
    for (;;) {
      const int i = nextTask_.fetch_add(1, std::memory_order_relaxed);
      if (i >= numTasks_) return;
      try {
        (*fn_)(i, worker);
      } catch (...) {
        MutexLock lock(mutex_);
        if (!firstError_) firstError_ = std::current_exception();
      }
    }
  }

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  CondVar wake_;
  CondVar drained_;
  // fn_ and numTasks_ are *epoch* state, not conventionally guarded state:
  // parallelFor publishes them under mutex_ before bumping generation_, and
  // workers read them lock-free inside runTasks only between observing the
  // new generation (acquire via the wait above) and reporting drained — a
  // window in which parallelFor provably does not write them.  GUARDED_BY
  // cannot express that handshake, so they stay unannotated; the TSan job
  // checks the protocol dynamically.
  const std::function<void(int, int)>* fn_ = nullptr;
  int numTasks_ = 0;
  std::atomic<int> nextTask_{0};
  int pendingWorkers_ SLIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ SLIM_GUARDED_BY(mutex_) = 0;
  bool stop_ SLIM_GUARDED_BY(mutex_) = false;
  std::exception_ptr firstError_ SLIM_GUARDED_BY(mutex_);
};

}  // namespace slim::support
